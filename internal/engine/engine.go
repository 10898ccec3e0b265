// Package engine implements the paper's two-tier operational system model
// (Section 2) once, for every execution substrate: a wired network of M
// mobile support stations (MSSs) and N mobile hosts (MHs), each attached to
// at most one cell at a time.
//
// The engine owns the full model:
//
//   - MSS/MH registries and the connected / in-transit / disconnected
//     status machine, with sorted-slice cell membership;
//   - reliable FIFO wired channels between MSSs and FIFO wireless channels
//     between an MSS and the MHs local to its cell, with the paper's
//     prefix-delivery semantics across moves;
//   - routing to mobile hosts with a pluggable search service, retry across
//     moves (search-and-chase), and in-transit waiter queues;
//   - the leave/join/disconnect/reconnect mobility protocol, including
//     handoff hooks so algorithms can migrate per-MH state between MSSs;
//   - the cost accounting of the paper's model (Cfixed, Cwireless, Csearch)
//     and model-level Stats counters;
//   - registration and dispatch for algorithm state machines.
//
// What the engine does not own is execution: time, deferred callbacks,
// per-channel FIFO transport, and randomness come from a small Substrate
// interface. internal/core binds the engine to the deterministic simulation
// kernel; internal/rt binds it to a goroutine/channel runtime. Because both
// adapters share this single implementation, every protocol fix, race
// repair, and hot-path optimization lands on both substrates by
// construction.
//
// All Engine methods must be called from the substrate's execution context
// (the kernel goroutine, or the rt executor), or during the single-threaded
// build phase before events flow.
package engine

import (
	"fmt"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

type mssState struct {
	local        sortedMHs
	disconnected map[MHID]bool
}

type mhState struct {
	status MHStatus
	// at is the current cell while connected, the cell holding the
	// "disconnected" flag while disconnected, and the previous cell while in
	// transit.
	at     MSSID
	dozing bool
}

// Stats are model-level counters kept outside the cost meter.
type Stats struct {
	// Searches is the number of searches performed (abstract mode) or
	// broadcast search rounds (broadcast mode).
	Searches int64
	// StaleReroutes counts re-forwards after a destination moved while a
	// message was in flight (the paper's footnote-2 case).
	StaleReroutes int64
	// Moves, Disconnects and Reconnects count completed mobility operations.
	Moves, Disconnects, Reconnects int64
	// DozeInterruptions counts wireless deliveries that interrupted a dozing
	// MH, in total and per MH.
	DozeInterruptions     int64
	DozeInterruptionsByMH map[MHID]int64
	// FailedDeliveries counts routed sends that ended in a disconnected
	// notification to the sender, plus deferred MH sends dropped because the
	// MH disconnected before they could replay.
	FailedDeliveries int64
	// WirelessDrops counts wireless transmissions destroyed in flight by an
	// injecting substrate (random loss, link flaps, a crashed station's
	// radio); folded in from the substrate's FaultStats.
	WirelessDrops int64
	// Retransmits counts ARQ retransmissions after ack timeouts
	// (Config.ReliableWireless).
	Retransmits int64
	// DuplicatesSuppressed counts wireless frames the ARQ receiver
	// discarded as already-accepted duplicates.
	DuplicatesSuppressed int64
	// TokenRegenerations counts recovery elections that regenerated a lost
	// token, reported by algorithms via Context.NoteTokenRegeneration.
	TokenRegenerations int64
	// ParkedOnDeadMSS counts transmissions a substrate parked because their
	// relay station's process was declared dead (netrt liveness): the record
	// stays pending and is replayed when the station resyncs, so the
	// executor degrades to parking instead of wedging. Reported by the
	// substrate via Engine.NoteParkedOnDeadMSS.
	ParkedOnDeadMSS int64
	// WaiterDrops counts delivery records discarded because an in-transit
	// MH's waiter queue was at Config.WaiterLimit and no custody hook took
	// the overflow (see addWaiter). Zero unless a limit is configured.
	WaiterDrops int64
}

// Engine is the substrate-independent driver of the two-tier model. Exactly
// one Engine exists per network instance; internal/core and internal/rt
// wrap it with their substrate bindings and lifecycle APIs.
type Engine struct {
	cfg   Config
	sub   Substrate
	meter *cost.Meter

	mss []mssState
	mh  []mhState

	algs []Algorithm
	ctxs []Context

	// waiters holds delivery records blocked on a MH that is between cells;
	// they fire once it joins a cell. Fired slices are recycled through
	// waiterPool so churn-heavy runs stop allocating once warm.
	waiters    map[MHID][]*DeliveryRec
	waiterPool [][]*DeliveryRec

	// recFree/recLive are the delivery-record pool: an intrusive free list
	// and the checked-out count (see record.go).
	recFree *DeliveryRec
	recLive int

	// pairs is the per-ordered-(MH,MH)-pair FIFO reorder state for
	// SendMHToMH traffic.
	pairs map[pairKey]*pairState

	// arq is the reliable-wireless sublayer; nil unless
	// Config.ReliableWireless (see arq.go).
	arq *arq

	// custody, when bound, is offered messages that would otherwise end in
	// a disconnected-delivery failure or a waiter-queue drop (see
	// custody.go). nil leaves the paper's park-and-notify behavior intact.
	custody CustodyHook

	stats Stats
}

var _ Registrar = (*Engine)(nil)

// New builds an engine from cfg on the given substrate, placing every MH in
// its initial cell.
func New(cfg Config, sub Substrate) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sub == nil {
		return nil, fmt.Errorf("engine: nil substrate")
	}
	e := &Engine{
		cfg:     cfg,
		sub:     sub,
		meter:   cost.NewMeterSized(cfg.N),
		mss:     make([]mssState, cfg.M),
		mh:      make([]mhState, cfg.N),
		waiters: make(map[MHID][]*DeliveryRec),
		pairs:   make(map[pairKey]*pairState),
	}
	sub.BindRecSink(e)
	e.stats.DozeInterruptionsByMH = make(map[MHID]int64)
	for i := range e.mss {
		e.mss[i] = mssState{
			disconnected: make(map[MHID]bool),
		}
	}
	place := cfg.Placement
	if place == nil {
		place = func(mh MHID) MSSID { return MSSID(int(mh) % cfg.M) }
	}
	// Two passes: count each cell's population first so membership slices
	// are allocated at final size, then fill them. MH ids ascend, so each
	// add is an append — building a million-host system stays O(N log N)
	// with exactly one allocation per cell.
	cells := make([]MSSID, cfg.N)
	counts := make([]int, cfg.M)
	for i := range e.mh {
		at := place(MHID(i))
		if int(at) < 0 || int(at) >= cfg.M {
			return nil, fmt.Errorf("engine: placement of mh%d at invalid mss%d", i, int(at))
		}
		cells[i] = at
		counts[at]++
	}
	for i := range e.mss {
		if counts[i] > 0 {
			e.mss[i].local.ids = make([]MHID, 0, counts[i])
		}
	}
	for i := range e.mh {
		at := cells[i]
		e.mh[i] = mhState{status: StatusConnected, at: at}
		e.mss[at].local.add(MHID(i))
	}
	if cfg.ReliableWireless {
		e.arq = newARQ(e)
	}
	return e, nil
}

// Register attaches an algorithm to the engine and returns the Context its
// handlers will receive. Algorithms must be registered before any messages
// are exchanged.
func (e *Engine) Register(alg Algorithm) Context {
	if alg == nil {
		panic("engine: register nil algorithm")
	}
	idx := len(e.algs)
	e.algs = append(e.algs, alg)
	ctx := &algContext{e: e, alg: idx}
	e.ctxs = append(e.ctxs, ctx)
	return ctx
}

// Meter exposes the cost meter.
func (e *Engine) Meter() *cost.Meter { return e.meter }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Merge folds a substrate's fault accounting into a copy of the model
// counters and returns it. It is the single place engine Stats and
// substrate FaultStats meet: Engine.Stats uses it when the substrate
// reports faults, and experiment drivers can apply it to snapshots.
func (s Stats) Merge(fs FaultStats) Stats {
	s.WirelessDrops = fs.WirelessDrops
	return s
}

// Stats returns a copy of the model-level counters. If the substrate
// injects faults (implements FaultReporter), its loss accounting is folded
// in via Merge, so callers see drops without knowing the injector's type;
// substrates that report no faults leave the counters untouched.
func (e *Engine) Stats() Stats {
	cp := e.stats
	cp.DozeInterruptionsByMH = make(map[MHID]int64, len(e.stats.DozeInterruptionsByMH))
	for k, v := range e.stats.DozeInterruptionsByMH {
		cp.DozeInterruptionsByMH[k] = v
	}
	if fr, ok := e.sub.(FaultReporter); ok {
		cp = cp.Merge(fr.FaultStats())
	}
	return cp
}

// NoteParkedOnDeadMSS records one transmission parked by the substrate
// because its relay station was dead (see Stats.ParkedOnDeadMSS). Must be
// called on the engine's execution context, like every other engine method.
func (e *Engine) NoteParkedOnDeadMSS() { e.stats.ParkedOnDeadMSS++ }

// Where reports the cell and connectivity status of mh. While disconnected,
// the returned MSS is the cell holding the "disconnected" flag; while in
// transit it is the previous cell.
func (e *Engine) Where(mh MHID) (MSSID, MHStatus) {
	e.checkMH(mh)
	st := e.mh[mh]
	return st.at, st.status
}

// SetDoze marks mh as dozing (or not). Deliveries to a dozing MH still
// succeed but are counted as interruptions.
func (e *Engine) SetDoze(mh MHID, dozing bool) {
	e.checkMH(mh)
	e.mh[mh].dozing = dozing
}

// IsDozing reports whether mh is in doze mode.
func (e *Engine) IsDozing(mh MHID) bool {
	e.checkMH(mh)
	return e.mh[mh].dozing
}

// event records one typed observability event. With tracing disabled
// (Config.Obs nil) this is a single branch — no time lookup, no
// allocation — which is what keeps the hot-path benchmarks flat.
func (e *Engine) event(kind obs.EventKind, a, b, c int32) {
	if e.cfg.Obs == nil {
		return
	}
	e.cfg.Obs.Record(e.sub.Now(), kind, a, b, c)
}

// boolOperand encodes a flag into an event operand (1 = true).
func boolOperand(v bool) int32 {
	if v {
		return 1
	}
	return 0
}

func (e *Engine) checkMSS(id MSSID) {
	if int(id) < 0 || int(id) >= e.cfg.M {
		panic(fmt.Sprintf("engine: invalid mss id %d (M=%d)", int(id), e.cfg.M))
	}
}

func (e *Engine) checkMH(id MHID) {
	if int(id) < 0 || int(id) >= e.cfg.N {
		panic(fmt.Sprintf("engine: invalid mh id %d (N=%d)", int(id), e.cfg.N))
	}
}

func (e *Engine) delay(d Delay) sim.Time {
	return e.sub.RNG().Duration(d.Min, d.Max)
}

// transmitWired sends rec over the (from, to) wired channel: draw the link
// latency, then hand the record to the substrate's FIFO transport.
func (e *Engine) transmitWired(from, to MSSID, rec *DeliveryRec) {
	e.sub.TransmitRec(e.chanWired(from, to), e.delay(e.cfg.Wired), rec)
}

// transmitDown sends rec over the (mss, mh) wireless downlink, through the
// ARQ sublayer when the wireless network is unreliable. Every payload op
// re-checks MH presence at delivery time, so retransmitted frames keep the
// prefix semantics unchanged.
func (e *Engine) transmitDown(mss MSSID, mh MHID, rec *DeliveryRec) {
	if e.arq != nil {
		e.arq.send(e.chanDown(mss, mh), e.chanUp(mh), rec)
		return
	}
	e.sub.TransmitRec(e.chanDown(mss, mh), e.delay(e.cfg.Wireless), rec)
}

// transmitUp sends rec over mh's wireless uplink. Under ARQ, acks come back
// on the downlink of the cell the MH occupies at send time.
func (e *Engine) transmitUp(mh MHID, rec *DeliveryRec) {
	if e.arq != nil {
		e.arq.send(e.chanUp(mh), e.chanDown(e.mh[mh].at, mh), rec)
		return
	}
	e.sub.TransmitRec(e.chanUp(mh), e.delay(e.cfg.Wireless), rec)
}

func (e *Engine) dispatchMSS(alg int, at MSSID, from From, msg Message) {
	h, ok := e.algs[alg].(MSSHandler)
	if !ok {
		panic(fmt.Sprintf("engine: algorithm %q received MSS message without MSSHandler", e.algs[alg].Name()))
	}
	h.HandleMSS(e.ctxs[alg], at, from, msg)
}

func (e *Engine) dispatchMH(alg int, at MHID, msg Message) {
	h, ok := e.algs[alg].(MHHandler)
	if !ok {
		panic(fmt.Sprintf("engine: algorithm %q received MH message without MHHandler", e.algs[alg].Name()))
	}
	h.HandleMH(e.ctxs[alg], at, msg)
}

func (e *Engine) notifyJoin(at MSSID, mh MHID, prev MSSID, wasDisconnected bool) {
	for i, alg := range e.algs {
		if obs, ok := alg.(MobilityObserver); ok {
			obs.OnJoin(e.ctxs[i], at, mh, prev, wasDisconnected)
		}
	}
}

func (e *Engine) notifyLeave(at MSSID, mh MHID) {
	for i, alg := range e.algs {
		if obs, ok := alg.(MobilityObserver); ok {
			obs.OnLeave(e.ctxs[i], at, mh)
		}
	}
}

func (e *Engine) notifyDisconnect(at MSSID, mh MHID) {
	for i, alg := range e.algs {
		if obs, ok := alg.(MobilityObserver); ok {
			obs.OnDisconnect(e.ctxs[i], at, mh)
		}
	}
}

func (e *Engine) notifyFailure(alg int, at MSSID, mh MHID, msg Message, reason FailReason) {
	e.stats.FailedDeliveries++
	e.event(obs.EvFailure, int32(mh), int32(at), 0)
	h, ok := e.algs[alg].(DeliveryFailureHandler)
	if !ok {
		// The algorithm chose not to observe failures; the message is
		// silently dropped, matching a sender that ignores the notification.
		return
	}
	h.OnDeliveryFailure(e.ctxs[alg], at, mh, msg, reason)
}

// addWaiter parks rec until mh joins a cell, reusing a pooled slice when
// the MH has no waiters yet. With Config.WaiterLimit set, a full queue
// overflows into the custody hook (when one is bound and accepts) or is
// dropped and counted in Stats.WaiterDrops.
func (e *Engine) addWaiter(mh MHID, rec *DeliveryRec) {
	w, ok := e.waiters[mh]
	if lim := e.cfg.WaiterLimit; lim > 0 && len(w) >= lim {
		e.overflowWaiter(mh, rec)
		return
	}
	if !ok {
		if n := len(e.waiterPool); n > 0 {
			w = e.waiterPool[n-1]
			e.waiterPool = e.waiterPool[:n-1]
		}
	}
	e.waiters[mh] = append(w, rec)
}

// overflowWaiter disposes of a record that found mh's waiter queue full.
// Resumable routed payloads are offered to the custody hook — the offer
// is preceded by one fixed control-message charge, exactly like the two
// routed-failure offer sites, so custody acceptance costs the same at
// every seam. Everything else (and any refusal) is dropped: the pair
// sequence is tombstoned so later ordered traffic is not wedged, and
// the record returns to the pool.
func (e *Engine) overflowWaiter(mh MHID, rec *DeliveryRec) {
	if e.custody != nil && rec.op == opRouteResume && !rec.opts.toMSS {
		e.meter.Charge(cost.CatControl, cost.KindFixed)
		if e.custody.OfferCustody(rec.mss, mh, rec.msg, CustodyRef{opts: rec.opts}) {
			e.FreeRec(rec)
			return
		}
	}
	e.stats.WaiterDrops++
	e.skipPairSeq(rec.opts)
	e.FreeRec(rec)
}

func (e *Engine) fireWaiters(mh MHID) {
	pending := e.waiters[mh]
	if len(pending) == 0 {
		return
	}
	delete(e.waiters, mh)
	for _, rec := range pending {
		// Re-enter through the substrate so continuations observe a settled
		// network state and deterministic ordering.
		e.sub.EnqueueRec(rec)
	}
	for i := range pending {
		pending[i] = nil // release the record references
	}
	e.waiterPool = append(e.waiterPool, pending[:0])
}

// localMHs returns the cell's membership in ascending order. The slice is
// the live backing store — callers must not mutate it or hold it across
// events (see Context.LocalMHs).
func (e *Engine) localMHs(mss MSSID) []MHID {
	e.checkMSS(mss)
	return e.mss[mss].local.ids
}

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
// interface. Nor does it own unreliability: an optional Weather (the fault
// model) decides the fate of each transmission, and the engine carries it
// out. internal/core binds the engine to the deterministic simulation
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

// mhState is 8 bytes (DESIGN §7.2): at 10^5 hosts the table fits in L2.
type mhState struct {
	// at is the current cell while connected, the cell holding the
	// "disconnected" flag while disconnected, and the previous cell while in
	// transit.
	at     MSSID
	status MHStatus
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
	// WirelessDrops counts wireless transmissions destroyed in flight by
	// the engine's Weather (random loss, link flaps, a crashed station's
	// radio); read from its FaultStats.
	WirelessDrops int64
	// Retransmits counts ARQ retransmissions after ack timeouts (the
	// reliable-wireless sublayer, on under a non-empty fault plan).
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
	// they fire once it joins a cell (see waiterQueues).
	waiters waiterQueues

	// recFree/recLive/recSlab are the delivery-record pool: an intrusive
	// free list, the checked-out count and the length of the last slab it
	// grew by (see record.go).
	recFree *DeliveryRec
	recLive int
	recSlab int

	// pairs is the per-ordered-(MH,MH)-pair FIFO reorder state for
	// SendMHToMH traffic.
	pairs map[pairKey]*pairState

	// arq is the reliable-wireless sublayer; nil unless New was asked for
	// it (see arq.go).
	arq *arq

	// custody, when bound, is offered messages that would otherwise end in
	// a disconnected-delivery failure or a waiter-queue drop (see
	// custody.go). nil leaves the paper's park-and-notify behavior intact.
	custody CustodyHook

	// weather, when non-nil, decides the fate of every channel transmission
	// (transmit) and of every record landing off a channel (StepRec).
	weather Weather

	stats Stats
}

var _ Registrar = (*Engine)(nil)

// New builds an engine from cfg on the given substrate, placing every MH in
// its initial cell. A non-nil weather disturbs the channels (see Weather),
// and with it comes the ARQ sublayer (arq.go) on the wireless links, which
// restores the model's FIFO and prefix-delivery guarantees; a nil weather
// keeps the links reliable and ARQ off (over reliable links it would only
// add traffic).
func New(cfg Config, sub Substrate, weather Weather) (*Engine, error) {
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
		pairs:   make(map[pairKey]*pairState),
		weather: weather,
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
	if weather != nil {
		weather.Bind(e)
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
	idx := int32(len(e.algs))
	e.algs = append(e.algs, alg)
	ctx := &algContext{e: e, alg: idx}
	e.ctxs = append(e.ctxs, ctx)
	return ctx
}

// Meter exposes the cost meter.
func (e *Engine) Meter() *cost.Meter { return e.meter }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the model-level counters, with the weather's
// wireless drops when there is one.
func (e *Engine) Stats() Stats {
	cp := e.stats
	cp.DozeInterruptionsByMH = make(map[MHID]int64, len(e.stats.DozeInterruptionsByMH))
	for k, v := range e.stats.DozeInterruptionsByMH {
		cp.DozeInterruptionsByMH[k] = v
	}
	if e.weather != nil {
		cp.WirelessDrops = e.weather.Stats().WirelessDrops
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

// transmit hands rec to the substrate's FIFO transport on channel ch, with
// the link latency already drawn, and records the EvTransmit event first:
// the trace shows what the engine asked the transport to do, before the
// weather disturbs it. Every channel transmission, ARQ air copies and acks
// included, goes through here. Under a Weather, the record is stamped with
// its channel and transmission index (StepRec's Discard reads them) and
// carried out as the weather decides: destroyed, duplicated (the copy is
// cloned before the first is handed over, which then belongs to the
// substrate), and with the last copy late, outside the channel's FIFO order.
func (e *Engine) transmit(ch int, latency sim.Time, rec *DeliveryRec) {
	e.event(obs.EvTransmit, int32(ch), int32(latency), 0)
	if e.weather == nil {
		e.sub.TransmitRec(ch, latency, rec)
		return
	}
	idx, copies, late, extra := e.weather.Transmit(ch)
	rec.onCh, rec.tag = ch, idx
	switch copies {
	case 0:
		e.freeRec(rec)
		return
	case 2:
		cl := e.cloneRec(rec)
		e.sub.TransmitRec(ch, latency, rec)
		rec = cl
	}
	if late {
		e.sub.AfterRec(latency+extra, rec)
	} else {
		e.sub.TransmitRec(ch, latency, rec)
	}
}

// transmitWired sends rec over the (from, to) wired channel.
func (e *Engine) transmitWired(from, to MSSID, rec *DeliveryRec) {
	e.transmit(e.chanWired(from, to), e.delay(e.cfg.Wired), rec)
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
	e.transmit(e.chanDown(mss, mh), e.delay(e.cfg.Wireless), rec)
}

// transmitUp sends rec over mh's wireless uplink. Under ARQ, acks come back
// on the downlink of the cell the MH occupies at send time.
func (e *Engine) transmitUp(mh MHID, rec *DeliveryRec) {
	if e.arq != nil {
		e.arq.send(e.chanUp(mh), e.chanDown(e.mh[mh].at, mh), rec)
		return
	}
	e.transmit(e.chanUp(mh), e.delay(e.cfg.Wireless), rec)
}

func (e *Engine) dispatchMSS(alg int32, at MSSID, from From, msg Message) {
	h, ok := e.algs[alg].(MSSHandler)
	if !ok {
		panic(fmt.Sprintf("engine: algorithm %q received MSS message without MSSHandler", e.algs[alg].Name()))
	}
	h.HandleMSS(e.ctxs[alg], at, from, msg)
}

func (e *Engine) dispatchMH(alg int32, at MHID, msg Message) {
	h, ok := e.algs[alg].(MHHandler)
	if !ok {
		panic(fmt.Sprintf("engine: algorithm %q received MH message without MHHandler", e.algs[alg].Name()))
	}
	h.HandleMH(e.ctxs[alg], at, msg)
}

func (e *Engine) notifyJoin(at MSSID, mh MHID, prev MSSID, wasDisconnected bool) {
	for i, alg := range e.algs {
		if obs, ok := alg.(JoinObserver); ok {
			obs.OnJoin(e.ctxs[i], at, mh, prev, wasDisconnected)
		}
	}
}

func (e *Engine) notifyLeave(at MSSID, mh MHID) {
	for i, alg := range e.algs {
		if obs, ok := alg.(LeaveObserver); ok {
			obs.OnLeave(e.ctxs[i], at, mh)
		}
	}
}

func (e *Engine) notifyDisconnect(at MSSID, mh MHID) {
	for i, alg := range e.algs {
		if obs, ok := alg.(DisconnectObserver); ok {
			obs.OnDisconnect(e.ctxs[i], at, mh)
		}
	}
}

// notifyCrash tells every registered CrashObserver (restart false) or
// RestartObserver (restart true), in registration order, about mss.
func (e *Engine) notifyCrash(mss MSSID, restart bool) {
	for _, alg := range e.algs {
		if restart {
			if obs, ok := alg.(RestartObserver); ok {
				obs.NoteRestart(mss)
			}
		} else if obs, ok := alg.(CrashObserver); ok {
			obs.NoteCrash(mss)
		}
	}
}

func (e *Engine) notifyFailure(alg int32, at MSSID, mh MHID, msg Message, reason FailReason) {
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

// waitBlockRecs is the number of record pointers in one waiter block: 14
// pointers, the link and the count fill the block's 128 bytes, two cache
// lines.
const waitBlockRecs = 14

// waitBlock is one fixed-size piece of a waiter queue. A queue's blocks
// form a ring: the last block's next is the first, and every block but the
// last is full. A freed block keeps its stale record pointers: records
// belong to the pool for the engine's life, so they hold nothing alive.
type waitBlock struct {
	recs [waitBlockRecs]*DeliveryRec
	next *waitBlock // the queue's following block, or the next free block
	n    int32      // in a queue's last block: the records the queue holds
}

// waiterQueues is the engine's in-transit waiter storage (DESIGN §5): one
// pointer per host to its queue's last block (nil: nothing parked),
// allocated on the first park so a system whose hosts never park pays
// nothing, over blocks that come in slabs (nextSlab) and are recycled
// through an intrusive free list, so once warm, parking allocates nothing.
type waiterQueues struct {
	tail []*waitBlock
	free *waitBlock
	slab int // length of the last slab allocated
}

// len reports the number of records parked on mh.
func (w *waiterQueues) len(mh MHID) int {
	if w.tail == nil || w.tail[mh] == nil {
		return 0
	}
	return int(w.tail[mh].n)
}

// push appends rec to mh's queue; hosts sizes the tail table on the first
// park.
func (w *waiterQueues) push(mh MHID, rec *DeliveryRec, hosts int) {
	if w.tail == nil {
		w.tail = make([]*waitBlock, hosts)
	}
	t := w.tail[mh]
	var n int32
	if t != nil {
		n = t.n
	}
	i := n % waitBlockRecs
	if i == 0 {
		b := w.alloc()
		if t == nil {
			b.next = b
		} else {
			b.next, t.next = t.next, b
		}
		t = b
		w.tail[mh] = b
	}
	t.recs[i] = rec
	t.n = n + 1
}

// alloc takes a block off the free list, growing it by a slab when empty.
func (w *waiterQueues) alloc() *waitBlock {
	if w.free == nil {
		w.slab = nextSlab(w.slab)
		slab := make([]waitBlock, w.slab)
		for i := range slab[:len(slab)-1] {
			slab[i].next = &slab[i+1]
		}
		w.free = &slab[0]
	}
	b := w.free
	w.free = b.next
	return b
}

// addWaiter parks rec until mh joins a cell. With Config.WaiterLimit set,
// a full queue overflows into the custody hook (when one is bound and
// accepts) or is dropped and counted in Stats.WaiterDrops.
func (e *Engine) addWaiter(mh MHID, rec *DeliveryRec) {
	if lim := e.cfg.WaiterLimit; lim > 0 && e.waiters.len(mh) >= lim {
		e.overflowWaiter(mh, rec)
		return
	}
	e.waiters.push(mh, rec, e.cfg.N)
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
			e.freeRec(rec)
			return
		}
	}
	e.stats.WaiterDrops++
	e.skipPairSeq(rec.opts)
	e.freeRec(rec)
}

// fireWaiters hands mh's parked records back to the substrate with
// AfterRec(0, ·), in park order, so their continuations observe a settled
// network state and deterministic ordering, then splices the queue's ring
// of blocks onto the free list whole. The walk reads blocks only, never a
// record: the kernel's pop prefetch loads each one when it is due. The
// queue is detached before the walk and its blocks freed only after it,
// because a substrate that steps synchronously may park again, on any
// host, from inside AfterRec.
func (e *Engine) fireWaiters(mh MHID) {
	w := &e.waiters
	if w.len(mh) == 0 {
		return
	}
	t := w.tail[mh]
	w.tail[mh] = nil
	head := t.next
	b := head
	for left := t.n; left > 0; left -= waitBlockRecs {
		for _, rec := range b.recs[:min(left, waitBlockRecs)] {
			e.sub.AfterRec(0, rec)
		}
		b = b.next
	}
	t.next, w.free = w.free, head
}

// localMHs returns the cell's membership in ascending order. The slice is
// the live backing store — callers must not mutate it or hold it across
// events (see Context.LocalMHs).
func (e *Engine) localMHs(mss MSSID) []MHID {
	e.checkMSS(mss)
	return e.mss[mss].local.ids
}

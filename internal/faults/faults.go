// Package faults is a deterministic, seeded fault injector for the
// two-tier network model. It wraps any engine.Substrate and disturbs the
// delivery records flowing through TransmitRec according to a declarative
// Plan:
//
//   - per-channel-class wireless loss: drop, duplicate, and
//     reorder-within-latency probabilities, separately for downlinks and
//     uplinks (wired MSS-to-MSS channels stay lossless, per the paper's
//     model — stations share a reliable fixed network);
//   - link flaps: a cell's downlinks (and selected uplinks) go dark for a
//     virtual-time window;
//   - MSS crash/restart: between At and RestartAt a station neither sends
//     nor receives — its in-flight wired transmissions are discarded on
//     arrival, its outbound traffic at the source, and its radio is dark.
//     On restart an optional hook lets protocol layers replay their rejoin
//     path (the ring's NoteRestart, for example).
//
// Determinism: every fault decision is a pure function of (Plan.Seed,
// channel id, per-channel transmission index) — each channel owns a
// private RNG stream and every wireless transmission consumes exactly
// four draws whether or not any fault fires. Substrate timing therefore
// cannot perturb the decisions: the same Plan and seed yield the same
// per-channel delivery trace on the simulation kernel and on the live
// runtime, as long as the protocol offers the same per-channel traffic.
// Crash and flap windows are expressed in virtual time, so they are
// exactly reproducible on the simulator and reproducible up to scheduling
// jitter on the live runtime.
//
// Wireless fault plans require the engine's reliable-wireless sublayer
// (engine.Config.ReliableWireless): without ARQ a dropped frame is simply
// gone and the model's FIFO/prefix guarantees are void. The substrate
// adapters (internal/core, internal/rt) enable ARQ automatically when
// handed a non-empty plan. Note the sublayer retransmits forever: a plan
// that permanently darkens a link carrying traffic will never quiesce, so
// flap windows and crash restarts should be finite.
//
// The injector deliberately knows nothing of the engine beyond the
// Substrate seam: channels are classified with engine.ChannelLayout, and
// loss is reported back through engine.FaultStats. A drift-guard test in
// internal/engine enforces that boundary.
package faults

import (
	"fmt"
	"strings"

	"mobiledist/internal/engine"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// LinkFaults are the per-transmission fault probabilities of one wireless
// channel class.
type LinkFaults struct {
	// Drop is the probability a frame is destroyed in flight.
	Drop float64
	// Duplicate is the probability a second copy of the frame is injected.
	Duplicate float64
	// Reorder is the probability a copy is released outside the channel's
	// FIFO order, after an extra ReorderDelay. When the transmission is
	// also duplicated, the duplicate is the straggler; otherwise the frame
	// itself arrives late and may be overtaken.
	Reorder float64
	// ReorderDelay is the extra latency range of reordered copies. The
	// zero value means {1, 8} ticks.
	ReorderDelay engine.Delay
}

func (l LinkFaults) active() bool { return l.Drop > 0 || l.Duplicate > 0 || l.Reorder > 0 }

func (l LinkFaults) validate(name string) error {
	for _, p := range []struct {
		v float64
		n string
	}{{l.Drop, "drop"}, {l.Duplicate, "duplicate"}, {l.Reorder, "reorder"}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %s probability %v outside [0,1]", name, p.n, p.v)
		}
	}
	return l.ReorderDelay.Validate(name + " reorder")
}

// Flap darkens the wireless links of one cell for a virtual-time window
// [From, Until): every downlink of MSS, plus the uplinks of the listed
// MHs (uplink darkness is per-MH because an uplink has no fixed cell).
type Flap struct {
	MSS         engine.MSSID
	MHs         []engine.MHID
	From, Until sim.Time
}

// Crash takes one MSS down at At; RestartAt brings it back (0 = never).
// While down the station's wired traffic is discarded in both directions
// and its downlinks are dark. The model's stations are stateful, so a
// consumer that replays per-station protocol state should register an
// OnRestart hook.
type Crash struct {
	MSS       engine.MSSID
	At        sim.Time
	RestartAt sim.Time
}

// Plan is a declarative fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision; independent of the
	// substrate's latency RNG seed.
	Seed uint64
	// Down and Up are the wireless fault rates per channel class.
	Down, Up LinkFaults
	// Flaps are timed link outages.
	Flaps []Flap
	// Crashes are station failures.
	Crashes []Crash
}

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return !p.Down.active() && !p.Up.active() && len(p.Flaps) == 0 && len(p.Crashes) == 0
}

// Validate checks the plan against an (m, n) network.
func (p Plan) Validate(m, n int) error {
	if err := p.Down.validate("down"); err != nil {
		return err
	}
	if err := p.Up.validate("up"); err != nil {
		return err
	}
	for _, f := range p.Flaps {
		if int(f.MSS) < 0 || int(f.MSS) >= m {
			return fmt.Errorf("faults: flap of invalid mss%d (M=%d)", int(f.MSS), m)
		}
		for _, mh := range f.MHs {
			if int(mh) < 0 || int(mh) >= n {
				return fmt.Errorf("faults: flap of invalid mh%d uplink (N=%d)", int(mh), n)
			}
		}
		if f.From < 0 || f.Until < f.From {
			return fmt.Errorf("faults: flap window [%d,%d) invalid", f.From, f.Until)
		}
	}
	for _, c := range p.Crashes {
		if int(c.MSS) < 0 || int(c.MSS) >= m {
			return fmt.Errorf("faults: crash of invalid mss%d (M=%d)", int(c.MSS), m)
		}
		if c.At < 0 || (c.RestartAt != 0 && c.RestartAt <= c.At) {
			return fmt.Errorf("faults: crash window [%d,%d) invalid", c.At, c.RestartAt)
		}
	}
	return nil
}

// chanState is the per-channel decision stream — a transmission counter and
// a private RNG derived from (plan seed, channel id) — and, while the trace
// is recorded, the decision taken for each transmission index.
type chanState struct {
	n      int
	rng    *sim.RNG
	events []string
}

// inner is the wrapped substrate. The alias keeps the Injector's embedded
// field unexported while still promoting the seam methods it does not
// interpose.
type inner = engine.Substrate

// Injector implements engine.Substrate by embedding the inner substrate
// (time, randomness and off-channel scheduling pass straight through) and
// disturbing wireless TransmitRecs per the plan. Construct it around the
// raw substrate, hand it to engine.New, and (for plans with crashes) call
// Arm on the execution context before traffic flows.
//
// Record lifecycle: a destroyed transmission (drop, dark link, crashed
// station) returns its record to the engine's pool via RecSink.FreeRec —
// the injector frees what it discards. Duplicates are pooled copies from
// RecSink.CloneRec. For crash-at-receiver discards the injector interposes
// itself as the inner substrate's sink (see BindRecSink): every record
// surfacing from the transport passes its gate, which discards wired
// records landing at a station that crashed while they were in flight.
type Injector struct {
	inner
	plan   Plan
	layout engine.ChannelLayout
	chans  *engine.ChanTable[chanState]
	stats  engine.FaultStats

	// sink is the engine's record sink; the injector's own RecSink
	// implementation gates deliveries in front of it.
	sink engine.RecSink

	onCrash, onRestart func(engine.MSSID)

	// tracer, when non-nil, receives one typed event per fault decision
	// that disturbs traffic (EvDrop, EvDuplicate, EvReorder,
	// EvCrashDiscard). Undisturbed relays are not evented — the Transmit
	// seam above the injector already records those.
	tracer *obs.Tracer

	recording bool
}

var (
	_ engine.Substrate     = (*Injector)(nil)
	_ engine.FaultReporter = (*Injector)(nil)
	_ engine.RecSink       = (*Injector)(nil)
)

// New wraps sub for an (m, n) network under the given plan.
func New(plan Plan, m, n int, sub engine.Substrate) (*Injector, error) {
	if err := plan.Validate(m, n); err != nil {
		return nil, err
	}
	if sub == nil {
		return nil, fmt.Errorf("faults: nil inner substrate")
	}
	layout := engine.ChannelLayout{M: m, N: n}
	return &Injector{
		inner:  sub,
		plan:   plan,
		layout: layout,
		chans:  engine.NewChanTable[chanState](layout),
	}, nil
}

// BindRecSink implements engine.Substrate: remember the engine's sink and
// interpose the injector's own gate as the transport's sink, so records can
// be discarded at delivery time (crash-at-receiver).
func (i *Injector) BindRecSink(sink engine.RecSink) {
	i.sink = sink
	i.inner.BindRecSink(i)
}

// StepRec implements engine.RecSink: the delivery-time gate. A wired record
// landing at a station that crashed while it was in flight is discarded
// (the message travelled, but lands in a dead station) and its record freed;
// everything else steps through to the engine.
func (i *Injector) StepRec(rec *engine.DeliveryRec) {
	if ch := rec.Chan(); ch >= 0 {
		if kind, _, b := i.layout.Decode(ch); kind == engine.ChannelWired {
			if i.crashedAt(engine.MSSID(b), i.Now()) {
				idx := int(rec.Tag())
				i.stats.CrashDiscards++
				i.amend(ch, idx, "crash-rx")
				i.event(obs.EvCrashDiscard, ch, idx)
				i.sink.FreeRec(rec)
				return
			}
		}
	}
	i.sink.StepRec(rec)
}

// FreeRec implements engine.RecSink, forwarding to the engine's pool.
func (i *Injector) FreeRec(rec *engine.DeliveryRec) { i.sink.FreeRec(rec) }

// CloneRec implements engine.RecSink, forwarding to the engine's pool.
func (i *Injector) CloneRec(rec *engine.DeliveryRec) *engine.DeliveryRec {
	return i.sink.CloneRec(rec)
}

// TimerRec implements engine.RecSink, forwarding to the engine's pool.
func (i *Injector) TimerRec(fn func()) *engine.DeliveryRec { return i.sink.TimerRec(fn) }

// FaultStats implements engine.FaultReporter.
func (i *Injector) FaultStats() engine.FaultStats { return i.stats }

// Stats returns the injection counters (alias of FaultStats for callers
// that hold the concrete type).
func (i *Injector) Stats() engine.FaultStats { return i.stats }

// SetTracer routes the injector's fault decisions into the observability
// stream. Set before traffic flows; a nil tracer (the default) is a no-op.
func (i *Injector) SetTracer(t *obs.Tracer) { i.tracer = t }

// event records one fault decision; kind-specific operands are the channel
// id and the per-channel transmission index.
func (i *Injector) event(kind obs.EventKind, ch, idx int) {
	if i.tracer == nil {
		return
	}
	i.tracer.Record(i.Now(), kind, int32(ch), int32(idx), 0)
}

// OnCrash registers a hook run (on the execution context) when a planned
// crash fires. Set before Arm.
func (i *Injector) OnCrash(fn func(engine.MSSID)) { i.onCrash = fn }

// OnRestart registers a hook run (on the execution context) when a crashed
// station restarts — the place to replay protocol rejoin paths. Set before
// Arm.
func (i *Injector) OnRestart(fn func(engine.MSSID)) { i.onRestart = fn }

// Arm schedules the plan's crash and restart hooks. Call it once, on the
// execution context (before Run on the simulator; inside Do on the live
// runtime). Crash gating of traffic works without Arm — this only drives
// the notification hooks.
func (i *Injector) Arm() {
	for _, c := range i.plan.Crashes {
		c := c
		if i.onCrash != nil {
			i.at(c.At, func() { i.onCrash(c.MSS) })
		}
		if c.RestartAt > 0 && i.onRestart != nil {
			i.at(c.RestartAt, func() { i.onRestart(c.MSS) })
		}
	}
}

// at arms a timer record for absolute virtual time t. The record bypasses
// the injector's own TransmitRec: plan hooks are not traffic.
func (i *Injector) at(t sim.Time, fn func()) {
	d := t - i.Now()
	if d < 0 {
		d = 0
	}
	i.AfterRec(d, i.sink.TimerRec(fn))
}

// DownSince reports whether mss is crashed at the current virtual time,
// and since when. Callable only on the execution context; useful as a
// failure-detector oracle with a suspicion delay.
func (i *Injector) DownSince(mss engine.MSSID) (sim.Time, bool) {
	now := i.Now()
	for _, c := range i.plan.Crashes {
		if c.MSS == mss && c.At <= now && (c.RestartAt == 0 || now < c.RestartAt) {
			return c.At, true
		}
	}
	return 0, false
}

func (i *Injector) crashedAt(mss engine.MSSID, t sim.Time) bool {
	for _, c := range i.plan.Crashes {
		if c.MSS == mss && c.At <= t && (c.RestartAt == 0 || t < c.RestartAt) {
			return true
		}
	}
	return false
}

func (i *Injector) flappedDown(mss engine.MSSID, t sim.Time) bool {
	for _, f := range i.plan.Flaps {
		if f.MSS == mss && f.From <= t && t < f.Until {
			return true
		}
	}
	return false
}

func (i *Injector) flappedUp(mh engine.MHID, t sim.Time) bool {
	for _, f := range i.plan.Flaps {
		if f.From <= t && t < f.Until {
			for _, id := range f.MHs {
				if id == mh {
					return true
				}
			}
		}
	}
	return false
}

// stream lazily builds the channel's private decision stream. The
// golden-ratio multiply spreads adjacent channel ids across the splitmix
// seed space.
func (st *chanState) stream(seed uint64, ch int) *sim.RNG {
	if st.rng == nil {
		st.rng = sim.NewRNG(seed ^ (uint64(ch+1) * 0x9E3779B97F4A7C15))
	}
	return st.rng
}

// TransmitRec implements engine.Substrate: classify the channel, consume
// the channel's fixed fault-decision draws, and deliver zero, one, or two
// record copies through the inner substrate. Destroyed records return to
// the pool via FreeRec; duplicates are pooled clones.
func (i *Injector) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	now := i.Now()
	kind, a, b := i.layout.Decode(ch)
	// st is good until the next At (engine.ChanTable): it is used up to the
	// draws below, and record looks the channel up again.
	st := i.chans.At(ch)
	idx := st.n
	st.n++
	// Stamp the channel (for the delivery-time gate) and the transmission
	// index (so a crash-rx discard can amend this entry of the trace).
	rec.SetChan(ch)
	rec.SetTag(int32(idx))

	if kind == engine.ChannelWired {
		from := engine.MSSID(a)
		if i.crashedAt(from, now) {
			i.stats.CrashDiscards++
			i.record(ch, idx, "crash-tx")
			i.event(obs.EvCrashDiscard, ch, idx)
			i.sink.FreeRec(rec)
			return
		}
		// The crash-at-receiver check happens in StepRec's gate when the
		// record surfaces from the transport.
		i.record(ch, idx, "relay")
		i.inner.TransmitRec(ch, latency, rec)
		return
	}

	var lf LinkFaults
	dark := false
	switch kind {
	case engine.ChannelDown:
		lf = i.plan.Down
		mss := engine.MSSID(a)
		dark = i.crashedAt(mss, now) || i.flappedDown(mss, now)
	case engine.ChannelUp:
		lf = i.plan.Up
		dark = i.flappedUp(engine.MHID(b), now)
	}

	// Exactly four draws per wireless transmission, fault or not, so the
	// decision stream is a pure function of (seed, channel, index).
	rng := st.stream(i.plan.Seed, ch)
	pDrop := rng.Float64()
	pDup := rng.Float64()
	pReorder := rng.Float64()
	extra := reorderExtra(lf.ReorderDelay, rng)

	if dark {
		i.stats.WirelessDrops++
		i.record(ch, idx, "dark")
		i.event(obs.EvDrop, ch, idx)
		i.sink.FreeRec(rec)
		return
	}
	if pDrop < lf.Drop {
		i.stats.WirelessDrops++
		i.record(ch, idx, "drop")
		i.event(obs.EvDrop, ch, idx)
		i.sink.FreeRec(rec)
		return
	}
	dup := pDup < lf.Duplicate
	reorder := pReorder < lf.Reorder
	switch {
	case dup && reorder:
		// Primary copy in order; the duplicate straggles in outside the
		// FIFO clamp (AfterRec bypasses the channel's ordering). Clone
		// before the primary is handed over: once scheduled, the record
		// belongs to the transport.
		i.stats.WirelessDuplicates++
		i.stats.WirelessReorders++
		cl := i.sink.CloneRec(rec)
		i.inner.TransmitRec(ch, latency, rec)
		i.AfterRec(latency+extra, cl)
		i.record(ch, idx, "dup+reorder")
		i.event(obs.EvDuplicate, ch, idx)
		i.event(obs.EvReorder, ch, idx)
	case dup:
		i.stats.WirelessDuplicates++
		cl := i.sink.CloneRec(rec)
		i.inner.TransmitRec(ch, latency, rec)
		i.inner.TransmitRec(ch, latency, cl)
		i.record(ch, idx, "dup")
		i.event(obs.EvDuplicate, ch, idx)
	case reorder:
		i.stats.WirelessReorders++
		i.AfterRec(latency+extra, rec)
		i.record(ch, idx, "reorder")
		i.event(obs.EvReorder, ch, idx)
	default:
		i.inner.TransmitRec(ch, latency, rec)
		i.record(ch, idx, "deliver")
	}
}

func reorderExtra(d engine.Delay, rng *sim.RNG) sim.Time {
	if d.Max == 0 {
		d = engine.Delay{Min: 1, Max: 8}
	}
	return rng.Duration(d.Min, d.Max)
}

// RecordTrace switches per-transmission trace recording on or off. Enable
// it before traffic flows; the trace is the determinism witness the fuzz
// and conformance tests compare across runs and substrates.
func (i *Injector) RecordTrace(on bool) { i.recording = on }

func (i *Injector) record(ch, idx int, action string) {
	if !i.recording {
		return
	}
	st := i.chans.At(ch)
	for len(st.events) <= idx {
		st.events = append(st.events, "")
	}
	st.events[idx] = action
}

func (i *Injector) amend(ch, idx int, action string) {
	if !i.recording {
		return
	}
	if st := i.chans.At(ch); idx < len(st.events) {
		st.events[idx] = action
	}
}

// Trace renders the recorded per-channel decision log in canonical order
// (ascending channel id, then transmission index). Because each channel's
// decisions depend only on (seed, channel, index), the rendering is
// comparable across runs and across substrates.
func (i *Injector) Trace() string {
	var b strings.Builder
	i.chans.Each(func(ch int, st *chanState) {
		for idx, action := range st.events {
			fmt.Fprintf(&b, "ch%d#%d %s\n", ch, idx, action)
		}
	})
	return b.String()
}

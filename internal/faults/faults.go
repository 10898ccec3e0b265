// Package faults is a deterministic, seeded fault model for the two-tier
// network: an engine.Weather the engine reads. It decides, per the
// declarative Plan, the fate of each channel transmission the engine asks
// about, and whether a record landing at a station is lost there:
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
//     Arm schedules each crash and restart (engine.PlanClock's AfterCrash)
//     so that it reaches every registered engine.CrashObserver or
//     engine.RestartObserver — the custody manager's NoteCrash and the
//     ring's NoteRestart, for example — the way moves reach the
//     JoinObservers.
//
// The injector only decides. The engine carries the decisions out on its
// own records: it frees what is destroyed, clones what is duplicated, sends
// a straggler around the channel's FIFO order, and discards at the
// receiver. The injector never holds a record and is not a Substrate.
//
// Determinism: every fault decision is a pure function of (Plan.Seed,
// channel id, per-channel transmission index) — each channel owns a
// private RNG stream and every wireless transmission consumes exactly
// four draws whether or not any fault fires. Substrate timing therefore
// cannot perturb the decisions: the same Plan and seed yield the same
// per-channel decisions on the simulation kernel and on the live runtime,
// as long as the protocol offers the same per-channel traffic. Crash and
// flap windows are expressed in virtual time, so they are exactly
// reproducible on the simulator and reproducible up to scheduling jitter
// on the live runtime.
//
// The witness of those decisions is the obs event stream (SetTracer): one
// event per transmission the injector disturbs, carrying the channel and
// the transmission index. The determinism tests compare it across runs.
//
// Wireless fault plans require the engine's reliable-wireless sublayer:
// without ARQ a dropped frame is simply gone and the model's FIFO/prefix
// guarantees are void. The engine turns ARQ on exactly when it has a
// Weather, and core.NewEngine hands it one exactly when the plan is
// non-empty. Note the sublayer retransmits forever: a plan that
// permanently darkens a link carrying traffic will never quiesce, so flap
// windows and crash restarts should be finite.
//
// The injector deliberately knows nothing of the engine beyond the
// interface it implements: channels are classified with
// engine.ChannelLayout, loss is reported back through engine.FaultStats,
// and time and plan instants come through the engine.PlanClock the engine
// binds. A drift-guard test in internal/engine enforces that boundary.
package faults

import (
	"cmp"
	"fmt"
	"slices"

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
// and its downlinks are dark. The model's stations are stateful, so an
// algorithm that replays per-station protocol state implements
// engine.CrashObserver or engine.RestartObserver.
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

// chanState is the per-channel decision stream: a transmission counter and
// a private RNG derived from (plan seed, channel id).
type chanState struct {
	n   int32
	rng *sim.RNG
}

// Injector implements engine.Weather: it decides the fate of the
// transmissions the engine asks about per the plan. Construct it, hand it
// to engine.New (which binds its clock), and (for plans with crashes whose
// instants algorithms should hear of) call Arm on the execution context
// before traffic flows.
type Injector struct {
	plan   Plan
	layout engine.ChannelLayout
	chans  *engine.ChanTable[chanState]
	stats  engine.FaultStats
	clock  engine.PlanClock

	// tracer, when non-nil, receives one typed event per fault decision
	// that disturbs traffic (EvDrop, EvDuplicate, EvReorder,
	// EvCrashDiscard). Undisturbed relays are not evented — the engine
	// records every transmission (EvTransmit) before it asks the injector.
	tracer *obs.Tracer
}

// New builds the fault model of an (m, n) network under the given plan.
func New(plan Plan, m, n int) (*Injector, error) {
	if err := plan.Validate(m, n); err != nil {
		return nil, err
	}
	layout := engine.ChannelLayout{M: m, N: n}
	return &Injector{
		plan:   plan,
		layout: layout,
		chans:  engine.NewChanTable[chanState](layout),
	}, nil
}

// Bind implements engine.Weather: engine.New hands over its clock.
func (i *Injector) Bind(c engine.PlanClock) { i.clock = c }

// Discard implements engine.Weather: a wired record landing at a station
// that crashed while it was in flight is lost there (the message travelled,
// but lands in a dead station).
func (i *Injector) Discard(ch int, idx int32) bool {
	kind, _, b := i.layout.Decode(ch)
	if kind != engine.ChannelWired {
		return false
	}
	now := i.clock.Now()
	if _, down := i.crashedAt(engine.MSSID(b), now); !down {
		return false
	}
	i.stats.CrashDiscards++
	i.event(now, obs.EvCrashDiscard, ch, idx, 1)
	return true
}

// Stats implements engine.Weather: the injection counters.
func (i *Injector) Stats() engine.FaultStats { return i.stats }

// SetTracer routes the injector's fault decisions into the observability
// stream. Set before traffic flows; a nil tracer (the default) is a no-op.
func (i *Injector) SetTracer(t *obs.Tracer) { i.tracer = t }

// event records one fault decision at now: A = channel id, B = per-channel
// transmission index, C = 1 for a dark-link drop or a crash discard at the
// receiver, else 0 (the obs.EventKind docs).
func (i *Injector) event(now sim.Time, kind obs.EventKind, ch int, idx, c int32) {
	if i.tracer == nil {
		return
	}
	i.tracer.Record(now, kind, int32(ch), idx, c)
}

// Arm schedules one record per planned crash and per restart
// (PlanClock.AfterCrash); stepped at its instant, each tells every registered
// engine.CrashObserver or engine.RestartObserver. Call it once, on the
// execution context (before Run on the simulator; inside Do on the live
// runtime). Crash gating of traffic works without Arm — this only drives
// the notifications.
//
// The instants are scheduled in stable (time, plan index) order, as delays
// from one reading of the clock. An instant already past when Arm runs — a
// live substrate arms after Start — is clamped to now, and records due
// together step in push order, so the observers still hear the plan in
// time order, with its windows shrunk. (A live substrate stamps the delays
// from its drain's instant, so a second clock reading taken after a stall
// could put a later instant first.)
func (i *Injector) Arm() {
	type instant struct {
		t       sim.Time
		mss     engine.MSSID
		restart bool
	}
	var plan []instant
	for _, c := range i.plan.Crashes {
		plan = append(plan, instant{c.At, c.MSS, false})
		if c.RestartAt > 0 {
			plan = append(plan, instant{c.RestartAt, c.MSS, true})
		}
	}
	slices.SortStableFunc(plan, func(a, b instant) int { return cmp.Compare(a.t, b.t) })
	now := i.clock.Now()
	for _, p := range plan {
		i.clock.AfterCrash(max(p.t-now, 0), p.mss, p.restart)
	}
}

// DownSince reports whether mss is crashed at the current virtual time,
// and since when. Callable only on the execution context; useful as a
// failure-detector oracle with a suspicion delay.
func (i *Injector) DownSince(mss engine.MSSID) (sim.Time, bool) {
	return i.crashedAt(mss, i.clock.Now())
}

// crashedAt reports whether a plan window has mss crashed at t, and since
// when.
func (i *Injector) crashedAt(mss engine.MSSID, t sim.Time) (sim.Time, bool) {
	for _, c := range i.plan.Crashes {
		if c.MSS == mss && c.At <= t && (c.RestartAt == 0 || t < c.RestartAt) {
			return c.At, true
		}
	}
	return 0, false
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

// Transmit implements engine.Weather: classify the channel, consume the
// channel's fixed fault-decision draws, and decide how many copies of the
// transmission land and whether the last one is late.
func (i *Injector) Transmit(ch int) (idx int32, copies int, late bool, extra sim.Time) {
	now := i.clock.Now()
	kind, a, b := i.layout.Decode(ch)
	// st is good until the next At (engine.ChanTable): it is used up to the
	// draws below.
	st := i.chans.At(ch)
	idx = st.n
	st.n++

	if kind == engine.ChannelWired {
		// The crash-at-receiver check is Discard's, when the record lands.
		if _, down := i.crashedAt(engine.MSSID(a), now); down {
			i.stats.CrashDiscards++
			i.event(now, obs.EvCrashDiscard, ch, idx, 0)
			return idx, 0, false, 0
		}
		return idx, 1, false, 0
	}

	var lf LinkFaults
	dark := false
	switch kind {
	case engine.ChannelDown:
		lf = i.plan.Down
		mss := engine.MSSID(a)
		_, crashed := i.crashedAt(mss, now)
		dark = crashed || i.flappedDown(mss, now)
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
	extra = reorderExtra(lf.ReorderDelay, rng)

	if dark || pDrop < lf.Drop {
		i.stats.WirelessDrops++
		i.event(now, obs.EvDrop, ch, idx, b2i(dark))
		return idx, 0, false, 0
	}
	// A duplicated transmission's first copy keeps the channel's order, so
	// a reorder makes the duplicate the straggler.
	copies = 1
	if pDup < lf.Duplicate {
		i.stats.WirelessDuplicates++
		i.event(now, obs.EvDuplicate, ch, idx, 0)
		copies = 2
	}
	if late = pReorder < lf.Reorder; late {
		i.stats.WirelessReorders++
		i.event(now, obs.EvReorder, ch, idx, 0)
	}
	return idx, copies, late, extra
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func reorderExtra(d engine.Delay, rng *sim.RNG) sim.Time {
	if d.Max == 0 {
		d = engine.Delay{Min: 1, Max: 8}
	}
	return rng.Duration(d.Min, d.Max)
}

package core

import (
	"fmt"

	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/faults"
	"mobiledist/internal/sim"
)

// defaultStepLimit bounds runaway protocols; generous enough for every
// experiment in the suite.
const defaultStepLimit = 50_000_000

// simSubstrate binds the engine to the deterministic event kernel. Time is
// the kernel clock, deferred execution is kernel scheduling (stable
// submission-order tie-break at equal instants), per-channel FIFO is a flat
// high-water-mark clamp on arrival times, and randomness is the kernel RNG —
// so the whole run remains a pure function of the seed.
type simSubstrate struct {
	kernel *sim.Kernel
	fifo   *engine.FIFOClock
	// step is the one closure allocated per system: the kernel invoker that
	// hands a scheduled delivery record to the bound sink. Caching it at
	// bind time is what keeps TransmitRec allocation-free.
	step func(any)
}

func (s *simSubstrate) Now() sim.Time { return s.kernel.Now() }

func (s *simSubstrate) BindRecSink(sink engine.RecSink) {
	s.step = func(a any) { sink.StepRec(a.(*engine.DeliveryRec)) }
}

func (s *simSubstrate) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	arrival := s.fifo.Arrival(ch, s.kernel.Now(), latency)
	// The channel id doubles as the shard key: on a sharded kernel each
	// shard owns a slice of the channel space, and FIFO clamping makes
	// same-channel arrivals collide into cheap same-timestamp runs.
	if err := s.kernel.ScheduleCallAtKeyed(ch, arrival, s.step, rec); err != nil {
		panic(fmt.Sprintf("core: schedule transmit: %v", err))
	}
}

// AfterRec treats a daemon timer as an ordinary scheduled event: virtual
// time only advances by running events, so there is no idle accounting to
// keep open. At d = 0 the record runs after everything already scheduled for
// now, in submission order.
func (s *simSubstrate) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	if err := s.kernel.ScheduleCallKeyedErr(0, d, s.step, rec); err != nil {
		panic(fmt.Sprintf("core: schedule record: %v", err))
	}
}

func (s *simSubstrate) RNG() *sim.RNG { return s.kernel.RNG() }

// System is the deterministic simulation driver of the two-tier model: the
// shared engine (internal/engine) bound to the sim kernel substrate. All
// methods must be called from the kernel goroutine (i.e. from within
// scheduled events, algorithm handlers, or before Run).
type System struct {
	cfg    Config
	kernel *sim.Kernel
	eng    *engine.Engine
	inj    *faults.Injector
}

// NewSystem builds a system from cfg, placing every MH in its initial cell.
func NewSystem(cfg Config) (*System, error) {
	k := sim.NewShardedKernel(cfg.Seed, cfg.Shards)
	limit := cfg.StepLimit
	if limit == 0 {
		limit = defaultStepLimit
	}
	k.SetStepLimit(limit)
	sub := &simSubstrate{kernel: k}
	eng, inj, err := NewEngine(cfg.Config, cfg.Faults, sub)
	if err != nil {
		return nil, err
	}
	sub.fifo = engine.NewFIFOClockLayout(cfg.M, cfg.N)
	return &System{cfg: cfg, kernel: k, eng: eng, inj: inj}, nil
}

// MustNewSystem is NewSystem panicking on configuration errors; intended for
// tests and examples with literal configs.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Register attaches an algorithm to the system and returns the Context its
// handlers will receive. Algorithms must be registered before any messages
// are exchanged.
func (s *System) Register(alg Algorithm) Context { return s.eng.Register(alg) }

// Engine exposes the shared network engine (for conformance tests and
// cross-substrate tooling).
func (s *System) Engine() *engine.Engine { return s.eng }

// Kernel exposes the underlying event kernel (for workload drivers).
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Injector exposes the fault injector, or nil when the system runs
// fault-free (no plan, or an empty one).
func (s *System) Injector() *faults.Injector { return s.inj }

// Meter exposes the cost meter.
func (s *System) Meter() *cost.Meter { return s.eng.Meter() }

// Stats returns a copy of the model-level counters.
func (s *System) Stats() Stats { return s.eng.Stats() }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.kernel.Now() }

// Schedule runs fn after delay ticks of virtual time.
func (s *System) Schedule(delay sim.Time, fn func()) { s.kernel.Schedule(delay, fn) }

// Run processes events until quiescence.
func (s *System) Run() error { return s.kernel.Run() }

// RunUntil processes events up to (and including) deadline.
func (s *System) RunUntil(deadline sim.Time) error { return s.kernel.RunUntil(deadline) }

// Where reports the cell and connectivity status of mh. While disconnected,
// the returned MSS is the cell holding the "disconnected" flag; while in
// transit it is the previous cell.
func (s *System) Where(mh MHID) (MSSID, MHStatus) { return s.eng.Where(mh) }

// SetDoze marks mh as dozing (or not). Deliveries to a dozing MH still
// succeed but are counted as interruptions.
func (s *System) SetDoze(mh MHID, dozing bool) { s.eng.SetDoze(mh, dozing) }

// IsDozing reports whether mh is in doze mode.
func (s *System) IsDozing(mh MHID) bool { return s.eng.IsDozing(mh) }

// Move initiates a cell switch: mh sends leave(r) to its current MSS,
// travels, then sends join(mh, prev) to the new cell's MSS. While between
// cells the MH neither sends nor receives (Section 2); routed messages park
// until the join completes. Moving to the current cell is a no-op.
func (s *System) Move(mh MHID, to MSSID) error { return s.eng.Move(mh, to) }

// Disconnect performs a voluntary disconnection: mh sends disconnect(r) to
// its local MSS, which removes it from the local list and sets the
// "disconnected" flag for it.
func (s *System) Disconnect(mh MHID) error { return s.eng.Disconnect(mh) }

// Reconnect re-attaches a disconnected MH at the given MSS with a
// reconnect(mh-id, prev mss-id) message. If knowsPrev is false the MH could
// not supply its previous location, and the new MSS queries every other
// fixed host to find it before running the handoff (Section 2).
func (s *System) Reconnect(mh MHID, at MSSID, knowsPrev bool) error {
	return s.eng.Reconnect(mh, at, knowsPrev)
}

// Package rt is the live runtime of the two-tier model: it binds the shared
// network engine (internal/engine) — which owns the MSS/MH registries,
// routing with search and chase, the mobility protocol, and cost accounting
// — to real goroutines and channels with wall-clock latencies, the
// operational style the paper's model describes.
//
// Architecture:
//
//   - every FIFO channel of the model (each ordered MSS pair, each
//     MSS→MH downlink, each MH uplink) is a goroutine reading from a Go
//     channel, sleeping the link latency, and handing the message to the
//     executor — preserving per-channel FIFO exactly as the model requires;
//   - a single executor goroutine runs all algorithm handlers, engine
//     bookkeeping, and cost accounting, so algorithm state needs no locks
//     and behaves exactly as under the simulator;
//   - quiescence is tracked by an in-flight operation counter, letting
//     tests wait for the network to drain.
//
// Because internal/core binds the same engine to the deterministic kernel,
// the two substrates cannot drift: every protocol rule lives in exactly one
// place.
//
// Lifecycle: build (NewSystem, Register, algorithm constructors — single
// threaded), Start, then interact via Do, then WaitIdle / Stop.
package rt

import (
	"fmt"
	"sync"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/execq"
	"mobiledist/internal/faults"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// Config describes a live two-tier network.
type Config struct {
	// M and N size the network.
	M, N int
	// Params are the message cost constants.
	Params cost.Params
	// Seed initialises the latency RNG.
	Seed uint64
	// Tick converts the model's virtual-time units to wall time (timers in
	// algorithm code use sim.Time; one unit sleeps one Tick). The default
	// is 50µs.
	Tick time.Duration
	// Wired and Wireless are latency ranges in ticks.
	Wired, Wireless core.Delay
	// Travel is the between-cells delay range in ticks.
	Travel core.Delay
	// SearchMode selects the search service; the zero value means
	// core.SearchAbstract.
	SearchMode core.SearchMode
	// PessimisticSearch mirrors core.Config.PessimisticSearch.
	PessimisticSearch bool
	// Faults, when non-nil and non-empty, wraps the live substrate in the
	// deterministic fault injector (internal/faults) and implies
	// ReliableWireless. Fault windows are in ticks of virtual time.
	Faults *core.FaultPlan
	// ReliableWireless enables the engine's ARQ sublayer on the wireless
	// channels even without a fault plan.
	ReliableWireless bool
	// ARQTimeout is the sublayer's initial retransmission timeout in ticks
	// (0 derives a default from the wireless latency range).
	ARQTimeout sim.Time
	// WaiterLimit caps the per-MH in-transit waiter queue (see
	// engine.Config.WaiterLimit); 0 means unlimited.
	WaiterLimit int
	// Placement maps each MH to its initial cell (nil: round-robin).
	Placement func(core.MHID) core.MSSID
	// Trace, when non-nil, receives one line per model-level event. It is
	// called on the executor goroutine.
	Trace func(t sim.Time, event, detail string)
	// Obs, when non-nil, records typed observability events and metrics
	// (internal/obs). Recording happens on the executor and pipe
	// goroutines (Tracer locks internally); scrapers — MetricsHandler,
	// expvar — snapshot concurrently from other goroutines.
	Obs *obs.Tracer
}

// DefaultConfig returns a live configuration for m stations and n hosts.
func DefaultConfig(m, n int) Config {
	return Config{
		M:                 m,
		N:                 n,
		Params:            cost.DefaultParams(),
		Seed:              1,
		Tick:              50 * time.Microsecond,
		Wired:             core.Delay{Min: 1, Max: 4},
		Wireless:          core.Delay{Min: 1, Max: 2},
		Travel:            core.Delay{Min: 2, Max: 10},
		SearchMode:        core.SearchAbstract,
		PessimisticSearch: true,
	}
}

// engineConfig projects the runtime configuration onto the shared engine's
// substrate-independent parameters.
func (c Config) engineConfig() engine.Config {
	mode := c.SearchMode
	if mode == 0 {
		mode = core.SearchAbstract
	}
	reliable := c.ReliableWireless
	if c.Faults != nil && !c.Faults.Empty() {
		reliable = true
	}
	return engine.Config{
		M:                 c.M,
		N:                 c.N,
		Params:            c.Params,
		Wired:             c.Wired,
		Wireless:          c.Wireless,
		Travel:            c.Travel,
		SearchMode:        mode,
		PessimisticSearch: c.PessimisticSearch,
		ReliableWireless:  reliable,
		ARQTimeout:        c.ARQTimeout,
		WaiterLimit:       c.WaiterLimit,
		Placement:         c.Placement,
		Trace:             c.Trace,
		Obs:               c.Obs,
	}
}

// System is the live runtime driver: the shared engine bound to the
// goroutine substrate. It implements core.Registrar, and the contexts it
// hands out implement core.Context, so any algorithm in this repository runs
// on it unmodified.
type System struct {
	cfg Config
	eng *engine.Engine
	rng *sim.RNG // executor-only
	inj *faults.Injector

	tasks    *execq.Queue
	stopped  chan struct{}
	execDone chan struct{}
	started  bool

	// sink interprets delivery records; bound by engine.New (or by the
	// fault injector wrapping the engine) via BindRecSink. Records are
	// stepped and freed only on the executor goroutine — the engine's
	// record pool is not thread-safe, which is why stopped paths drop
	// records instead of freeing them (shutdown abandons the pool anyway).
	sink engine.RecSink

	pipesMu sync.Mutex
	pipes   map[int]chan delivery
	wg      sync.WaitGroup

	epoch time.Time
}

var _ core.Registrar = (*System)(nil)

// liveSubstrate adapts the System to the engine's Substrate interface. Every
// method is invoked on the executor goroutine (or during the single-threaded
// build phase), matching the engine's execution-context contract.
type liveSubstrate struct {
	s *System
}

var _ engine.Substrate = (*liveSubstrate)(nil)

func (l *liveSubstrate) Now() sim.Time { return l.s.now() }

func (l *liveSubstrate) BindRecSink(sink engine.RecSink) { l.s.sink = sink }

// TransmitRec hands the delivery record to the channel's pipe goroutine,
// which sleeps the latency and forwards to the executor — FIFO by
// construction. The send races Stop: once the pipe's forward goroutine has
// exited, a full buffer would block the executor forever, so a stopped
// runtime resolves the op and drops the record instead (shutdown discards
// in-flight traffic by design; the record is abandoned, not freed, because
// the pool is executor-only).
func (l *liveSubstrate) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	s := l.s
	s.opStart()
	select {
	case s.pipe(ch) <- delivery{latency: time.Duration(latency) * s.cfg.Tick, rec: rec}:
	case <-s.stopped:
		s.opDone()
	}
}

// AfterRec arms a wall timer that hands the record to the executor for
// interpretation. A daemon record (standing maintenance such as DTN gossip)
// is armed without holding the in-flight op counter open, so it cannot
// wedge WaitIdle; a timer firing after Stop is safely ignored by exec.
func (l *liveSubstrate) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	s := l.s
	if rec.Daemon() {
		time.AfterFunc(time.Duration(d)*s.cfg.Tick, func() { l.EnqueueRec(rec) })
		return
	}
	s.opStart()
	time.AfterFunc(time.Duration(d)*s.cfg.Tick, func() {
		s.exec(func() {
			defer s.opDone()
			s.sink.StepRec(rec)
		})
	})
}

// EnqueueRec runs the record on the executor without delay.
func (l *liveSubstrate) EnqueueRec(rec *engine.DeliveryRec) {
	s := l.s
	s.exec(func() { s.sink.StepRec(rec) })
}

func (l *liveSubstrate) RNG() *sim.RNG { return l.s.rng }

// NewSystem builds a live system from cfg. A non-empty cfg.Faults plan
// interposes the deterministic fault injector between the engine and the
// goroutine substrate.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Microsecond
	}
	s := &System{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed),
		tasks:    execq.New(),
		stopped:  make(chan struct{}),
		execDone: make(chan struct{}),
		pipes:    make(map[int]chan delivery),
	}
	var sub engine.Substrate = &liveSubstrate{s: s}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		inj, err := faults.New(*cfg.Faults, cfg.M, cfg.N, sub)
		if err != nil {
			return nil, err
		}
		inj.SetTracer(cfg.Obs)
		s.inj = inj
		sub = inj
	}
	// The observer wraps outermost so it records what the engine asked the
	// transport to do, before the fault injector disturbs it.
	cfg.Obs.SetTopology(cfg.M, cfg.N)
	sub = engine.ObserveSubstrate(sub, cfg.Obs)
	eng, err := engine.New(cfg.engineConfig(), sub)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// Register implements core.Registrar. It must be called before Start.
func (s *System) Register(alg core.Algorithm) core.Context {
	if s.started {
		panic("rt: Register after Start")
	}
	return s.eng.Register(alg)
}

// Engine exposes the shared network engine (for conformance tests and
// cross-substrate tooling). Access it only via Do after Start.
func (s *System) Engine() *engine.Engine { return s.eng }

// Injector exposes the fault injector, or nil when the system runs
// fault-free. After Start, access it only via Do.
func (s *System) Injector() *faults.Injector { return s.inj }

// Meter returns the cost meter. Read it only after WaitIdle or Stop.
func (s *System) Meter() *cost.Meter { return s.eng.Meter() }

// Config returns the runtime configuration.
func (s *System) Config() Config { return s.cfg }

// Searches reports searches performed so far. After Start it synchronises
// with the executor, so it must not be called from inside Do or a handler.
func (s *System) Searches() int64 {
	return s.Stats().Searches
}

// Stats returns a copy of the model-level counters. After Start it
// synchronises with the executor, so it must not be called from inside Do or
// a handler (read s.Engine().Stats() there instead).
func (s *System) Stats() engine.Stats {
	if !s.started {
		return s.eng.Stats()
	}
	var st engine.Stats
	s.Do(func() { st = s.eng.Stats() })
	return st
}

// Start launches the executor. Algorithms must already be registered.
func (s *System) Start() {
	if s.started {
		panic("rt: Start called twice")
	}
	s.started = true
	s.epoch = time.Now()
	go func() {
		defer close(s.execDone)
		for {
			fn, ok := s.tasks.Pop()
			if !ok {
				return
			}
			fn()
			s.tasks.Done()
		}
	}()
}

// Do runs fn on the executor and waits for it — the only safe way to call
// algorithm APIs (Request, Send, …) from outside handlers after Start.
func (s *System) Do(fn func()) {
	if !s.started {
		panic("rt: Do before Start")
	}
	done := make(chan struct{})
	if !s.tasks.Push(func() {
		defer close(done)
		fn()
	}) {
		panic("rt: Do after Stop")
	}
	<-done
}

// WaitIdle blocks until the network drains — no task queued, no task
// running, no timer or transmission in flight — or the timeout elapses,
// reporting whether it drained. Idle detection is condition-signaled by
// the task queue's exact quiescence predicate, not a poll: the waiter
// parks on a channel the executor closes on the transition to idle, so
// long fault windows cost no CPU and wake-up is immediate.
func (s *System) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ch, idle := s.tasks.IdleWait()
		if idle {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
			// Loop to re-evaluate: the idle instant is genuine (the
			// predicate held under the queue lock), but re-checking is free
			// and guards against new external work between wake and return.
		case <-t.C:
			return false
		}
	}
}

// Stop shuts the runtime down and waits for every goroutine to exit.
func (s *System) Stop() {
	if !s.started {
		return
	}
	close(s.stopped)
	s.tasks.Close()
	<-s.execDone
	s.wg.Wait()
}

// now returns virtual time (wall time since Start in ticks).
func (s *System) now() sim.Time {
	if s.epoch.IsZero() {
		return 0
	}
	return sim.Time(time.Since(s.epoch) / s.cfg.Tick)
}

// exec enqueues fn on the executor (fire and forget).
func (s *System) exec(fn func()) {
	s.tasks.Push(fn)
}

// opStart/opDone bracket an asynchronous operation for idle tracking.
func (s *System) opStart() { s.tasks.OpStart() }
func (s *System) opDone()  { s.tasks.OpDone() }

func (s *System) checkMSS(id core.MSSID) {
	if int(id) < 0 || int(id) >= s.cfg.M {
		panic(fmt.Sprintf("rt: invalid mss id %d (M=%d)", int(id), s.cfg.M))
	}
}

func (s *System) checkMH(id core.MHID) {
	if int(id) < 0 || int(id) >= s.cfg.N {
		panic(fmt.Sprintf("rt: invalid mh id %d (N=%d)", int(id), s.cfg.N))
	}
}

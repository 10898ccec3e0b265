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
	"mobiledist/internal/sim"
)

// Config describes a live two-tier network: the model parameters (the
// embedded engine.Config, so cfg.M, cfg.Wired, cfg.Obs and the rest are its
// fields; latency ranges and timeouts are in ticks) plus what only a
// wall-clock substrate has. Obs recording happens on the executor and
// transport goroutines (Tracer locks internally); scrapers — MetricsHandler,
// expvar — snapshot concurrently from other goroutines.
type Config struct {
	engine.Config

	// Seed initialises the latency RNG.
	Seed uint64
	// Tick converts the model's virtual-time units to wall time (timers in
	// algorithm code use sim.Time; one unit lasts one Tick). Zero or
	// negative means defaultTick. Ticks are honoured to the nanosecond on
	// every substrate, the socket relays included. A sub-millisecond wait on
	// an otherwise idle process still wakes up to 1 ms late (the Go
	// netpoller's timer granularity), which is why the benchmark runs at
	// 1 ns: no link wait is ever armed and what is left is program cost.
	Tick time.Duration
	// Faults, when non-nil and non-empty, wraps the live substrate in the
	// deterministic fault injector (internal/faults) and implies
	// ReliableWireless (see core.NewEngine). Fault windows are in ticks of
	// virtual time.
	Faults *core.FaultPlan
}

const defaultTick = 50 * time.Microsecond

// DefaultConfig returns a live configuration for m stations and n hosts.
func DefaultConfig(m, n int) Config {
	return Config{
		Config: engine.Config{
			M:                 m,
			N:                 n,
			Params:            cost.DefaultParams(),
			Wired:             core.Delay{Min: 1, Max: 4},
			Wireless:          core.Delay{Min: 1, Max: 2},
			Travel:            core.Delay{Min: 2, Max: 10},
			SearchMode:        core.SearchAbstract,
			PessimisticSearch: true,
		},
		Seed: 1,
		Tick: defaultTick,
	}
}

// Transport is the one Substrate method a live driver writes itself: how a
// delivery record physically crosses FIFO channel ch (goroutine pipes in this
// package, sockets in internal/netrt). A transmission holds an in-flight op
// on Tasks from TransmitRec until the record is stepped or abandoned.
type Transport interface {
	TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec)
}

// Host is the live shell around the engine, written once for every
// wall-clock driver: the single executor goroutine that runs all engine and
// algorithm work, the task queue that is also the quiescence predicate, the
// bound record sink, the wall-clock epoch, and the lifecycle and calling
// conventions (build single-threaded, Start, interact via Do, WaitIdle,
// then the driver's Stop). It implements the five transport-independent
// engine.Substrate methods; the driver embeds *Host and adds TransmitRec
// and a Stop that ends in Shutdown.
//
// Records are stepped and freed only on the executor goroutine — the
// engine's record pool is not thread-safe, which is why stopped paths drop
// records instead of freeing them (shutdown abandons the pool anyway).
type Host struct {
	cfg Config
	eng *engine.Engine
	rng *sim.RNG // executor-only
	inj *faults.Injector

	tasks    *execq.Queue
	sink     engine.RecSink
	stopped  chan struct{}
	execDone chan struct{}
	started  bool
	stopOnce sync.Once
	epoch    time.Time
}

// NewHost builds the engine for cfg on the substrate made of the host's own
// five methods and the driver's TransmitRec. A non-empty cfg.Faults plan
// interposes the deterministic fault injector between the two.
func NewHost(cfg Config, tr Transport) (*Host, error) {
	if cfg.Tick <= 0 {
		cfg.Tick = defaultTick
	}
	h := &Host{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed),
		tasks:    execq.New(),
		stopped:  make(chan struct{}),
		execDone: make(chan struct{}),
	}
	var err error
	h.eng, h.inj, err = core.NewEngine(cfg.Config, cfg.Faults, struct {
		*Host
		Transport
	}{h, tr})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Now returns virtual time (wall time since Start in ticks).
func (h *Host) Now() sim.Time {
	if h.epoch.IsZero() {
		return 0
	}
	return sim.Time(time.Since(h.epoch) / h.cfg.Tick)
}

// RNG returns the latency random source (executor-only).
func (h *Host) RNG() *sim.RNG { return h.rng }

// BindRecSink stores the sink that interprets delivery records: the engine,
// or the fault injector wrapping it.
func (h *Host) BindRecSink(sink engine.RecSink) { h.sink = sink }

// StepRec interprets (and frees) rec on the bound sink. Executor only.
func (h *Host) StepRec(rec *engine.DeliveryRec) { h.sink.StepRec(rec) }

// AfterRec arms a wall timer that lands the record on the executor. A daemon
// record (standing maintenance such as DTN gossip) is armed without holding
// an in-flight op open, so it cannot wedge WaitIdle.
func (h *Host) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	if rec.Daemon() {
		time.AfterFunc(time.Duration(d)*h.cfg.Tick, func() { h.EnqueueRec(rec) })
		return
	}
	h.tasks.OpStart()
	time.AfterFunc(time.Duration(d)*h.cfg.Tick, func() { h.land(rec) })
}

// EnqueueRec runs the record on the executor without delay.
func (h *Host) EnqueueRec(rec *engine.DeliveryRec) {
	h.tasks.Push(func() { h.sink.StepRec(rec) })
}

// land is the arrival end of an in-flight record, callable from any
// goroutine: step it on the executor and resolve the op its sender opened.
// After Stop the queue is closed, so the record is dropped (not freed — the
// pool is executor-only) and the op still resolves, leaving nothing in
// flight behind.
func (h *Host) land(rec *engine.DeliveryRec) {
	if !h.tasks.Push(func() {
		defer h.tasks.OpDone()
		h.sink.StepRec(rec)
	}) {
		h.tasks.OpDone()
	}
}

// Tasks is the executor's work queue and in-flight op counter, for the
// driver's transport (Push runs a func on the executor, fire and forget;
// OpStart/OpDone bracket an asynchronous transmission for idle tracking).
func (h *Host) Tasks() *execq.Queue { return h.tasks }

// Stopped is closed when Shutdown begins; transport goroutines select on it.
func (h *Host) Stopped() <-chan struct{} { return h.stopped }

// Register implements core.Registrar. It must be called before Start.
func (h *Host) Register(alg core.Algorithm) core.Context {
	if h.started {
		panic("rt: Register after Start")
	}
	return h.eng.Register(alg)
}

// Engine exposes the shared network engine (for conformance tests and
// cross-substrate tooling). Access it only via Do after Start.
func (h *Host) Engine() *engine.Engine { return h.eng }

// Injector exposes the fault injector, or nil when the system runs
// fault-free. After Start, access it only via Do.
func (h *Host) Injector() *faults.Injector { return h.inj }

// Meter returns the cost meter. Read it only after WaitIdle or Stop.
func (h *Host) Meter() *cost.Meter { return h.eng.Meter() }

// Config returns the runtime configuration (Tick defaulted).
func (h *Host) Config() Config { return h.cfg }

// Searches reports searches performed so far (same calling rules as Stats).
func (h *Host) Searches() int64 { return h.Stats().Searches }

// Stats returns a copy of the model-level counters. After Start it
// synchronises with the executor, so it must not be called from inside Do or
// a handler (read Engine().Stats() there instead).
func (h *Host) Stats() engine.Stats {
	if !h.started {
		return h.eng.Stats()
	}
	var st engine.Stats
	h.Do(func() { st = h.eng.Stats() })
	return st
}

// Start launches the executor. Algorithms must already be registered.
func (h *Host) Start() {
	if h.started {
		panic("rt: Start called twice")
	}
	h.started = true
	h.epoch = time.Now()
	go func() {
		defer close(h.execDone)
		for {
			fn, ok := h.tasks.Pop()
			if !ok {
				return
			}
			fn()
			h.tasks.Done()
		}
	}()
}

// Do runs fn on the executor and waits for it — the only safe way to call
// algorithm APIs (Request, Send, …) from outside handlers after Start.
func (h *Host) Do(fn func()) {
	if !h.started {
		panic("rt: Do before Start")
	}
	done := make(chan struct{})
	if !h.tasks.Push(func() {
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
func (h *Host) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ch, idle := h.tasks.IdleWait()
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

// Shutdown is the host's half of every driver's Stop: close the stop signal
// and the task queue, and wait for the executor if Start ever launched it.
// Safe to call more than once and before Start; the driver then releases
// what is its own (pipe goroutines, sockets).
func (h *Host) Shutdown() {
	h.stopOnce.Do(func() {
		close(h.stopped)
		h.tasks.Close()
		if h.started {
			<-h.execDone
		}
	})
}

func (h *Host) checkMSS(id core.MSSID) {
	if int(id) < 0 || int(id) >= h.cfg.M {
		panic(fmt.Sprintf("rt: invalid mss id %d (M=%d)", int(id), h.cfg.M))
	}
}

func (h *Host) checkMH(id core.MHID) {
	if int(id) < 0 || int(id) >= h.cfg.N {
		panic(fmt.Sprintf("rt: invalid mh id %d (N=%d)", int(id), h.cfg.N))
	}
}

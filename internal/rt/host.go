package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
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
// transport goroutines (Tracer locks internally); MetricsHandler scrapes
// snapshot concurrently from other goroutines.
type Config struct {
	engine.Config

	// Seed initialises the latency RNG.
	Seed uint64
	// Tick converts the model's virtual-time units to wall time (timers in
	// algorithm code use sim.Time; one unit lasts one Tick). Zero or
	// negative means defaultTick. On every substrate, the socket relays
	// included, nothing lands before its due time, and a due record waits at
	// most one due-queue slot (1<<SlotShift ns) behind one that is not yet
	// due. A sub-millisecond wait on an otherwise idle process still wakes
	// up to 1 ms late (the Go netpoller's timer granularity), which is why
	// the benchmark runs at 1 ns: no link wait is ever armed and what is
	// left is program cost.
	Tick time.Duration
	// Faults, when non-nil and non-empty, gives the engine the
	// deterministic fault model (internal/faults) as its Weather and turns
	// on its reliable-wireless sublayer (see core.NewEngine). Fault windows
	// are in ticks of virtual time.
	Faults *core.FaultPlan
}

const defaultTick = 50 * time.Microsecond

// DefaultConfig returns a live configuration for m stations and n hosts.
func DefaultConfig(m, n int) Config {
	return Config{
		Config: engine.Config{
			M:          m,
			N:          n,
			Params:     cost.DefaultParams(),
			Wired:      core.Delay{Min: 1, Max: 4},
			Wireless:   core.Delay{Min: 1, Max: 2},
			Travel:     core.Delay{Min: 2, Max: 10},
			SearchMode: core.SearchAbstract,
		},
		Seed: 1,
		Tick: defaultTick,
	}
}

// Transport is the one Substrate method a live driver writes itself: how a
// delivery record physically crosses FIFO channel ch (the host's due queue at
// the channel's FIFO clamp in this package, sockets in internal/netrt). A
// driver that moves records off the executor holds an in-flight op on
// Driver.Tasks while a transmitted record is neither stepped nor abandoned,
// so WaitIdle sees it.
type Transport func(ch int, latency sim.Time, rec *engine.DeliveryRec)

// Host is the live shell around the engine, written once for every
// wall-clock driver: the single executor goroutine that runs all engine and
// algorithm work, the task queue that is also the quiescence predicate, the
// bound record sink, the wall-clock epoch, the one due queue every deferred
// record waits in (transport.go), and the lifecycle and calling conventions
// (build single-threaded, Start, interact via Do, WaitIdle, then Stop). The
// driver embeds *Host, hands NewHost its Transport and, in netrt, adds a Stop
// that ends in Host.Stop; the engine sees host and transport as one adapter.
//
// Records are stepped and freed only on the executor goroutine — the
// engine's record pool is not thread-safe, which is why Stop abandons queued
// records instead of freeing them (the pool goes with the host anyway).
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
	// epoch is set by Start. Transport goroutines read the clock (Now)
	// before and during Start — a datagram session traces its handshake
	// while the hub is still being built — so it is published atomically.
	epoch atomic.Pointer[time.Time]

	// The due queue (transport.go): executor only, or the building goroutine
	// before Start. held counts queued non-daemon records, which share one
	// in-flight op; queued: a drain is on the task queue or running; armed:
	// the timer will queue one at wakeAt. drainFn is h.drain, bound once.
	// draining: a drain is stepping its batch, and instant is the clock
	// reading it took, which stamps every put the batch makes.
	queue                   sim.Queue[sim.Due[*engine.DeliveryRec]]
	held                    int
	queued, armed, draining bool
	wakeAt, instant         sim.Time
	timer                   *time.Timer
	drainFn                 func()
}

// NewHost builds the engine for cfg on the substrate made of the host and the
// driver's transmit, and returns the Driver for that transmit's use. A
// non-empty cfg.Faults plan is the engine's Weather.
func NewHost(cfg Config, transmit Transport) (*Host, Driver, error) {
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
	h.queue.Init(SlotShift)
	h.drainFn = h.drain
	h.timer = time.AfterFunc(time.Hour, func() { h.tasks.Push(h.drainFn) })
	h.timer.Stop() // armed by schedule only
	var err error
	h.eng, h.inj, err = core.NewEngine(cfg.Config, cfg.Faults, substrate{h, transmit})
	if err != nil {
		return nil, Driver{}, err
	}
	return h, Driver{h}, nil
}

// substrate is the engine.Substrate a host and its driver's transmit make
// together. Being unexported, none of its methods reaches the method set of
// a System that embeds *Host: the record pool behind them is the executor's.
type substrate struct {
	*Host
	transmit Transport
}

// Now is the engine's clock, and so ctx.Now(): the due queue's, in ticks.
// Inside a drain it is the drain's instant, the base afterRec stamps from, so
// a delay a handler computes as "deadline − Now()" lands no earlier than the
// deadline however long the batch has run. Host.Now stays wall-fresh for
// readers off the executor.
func (s substrate) Now() sim.Time { return sim.Time(time.Duration(s.nowNs()) / s.cfg.Tick) }

// Beside Now: the latency RNG, the sink that interprets records (the
// engine), the due queue and the driver's transmit. Executor only, as every
// Substrate method.
func (s substrate) RNG() *sim.RNG                                { return s.rng }
func (s substrate) BindRecSink(sink engine.RecSink)              { s.sink = sink }
func (s substrate) AfterRec(d sim.Time, rec *engine.DeliveryRec) { s.afterRec(d, rec) }
func (s substrate) TransmitRec(ch int, l sim.Time, rec *engine.DeliveryRec) {
	s.transmit(ch, l, rec)
}

// Driver is what a driver's transport reaches of its host: the task queue,
// the stop signal and the bound record sink. Only NewHost makes one.
type Driver struct{ h *Host }

// Tasks is the executor's work queue and in-flight op counter (Push runs a
// func on the executor, fire and forget; OpStart/OpDone bracket an
// asynchronous transmission for idle tracking).
func (d Driver) Tasks() *execq.Queue { return d.h.tasks }

// Stopped is closed when Stop begins; transport goroutines select on it.
func (d Driver) Stopped() <-chan struct{} { return d.h.stopped }

// StepRec interprets (and frees) rec on the bound sink. Executor only.
func (d Driver) StepRec(rec *engine.DeliveryRec) { d.h.sink.StepRec(rec) }

// Now returns virtual time (wall time since Start in ticks).
func (h *Host) Now() sim.Time {
	epoch := h.epoch.Load()
	if epoch == nil {
		return 0
	}
	return sim.Time(time.Since(*epoch) / h.cfg.Tick)
}

// afterRec queues rec d ticks from now (from Start, before it, as Now; from
// the drain's instant, inside a drain). A daemon record (standing
// maintenance such as DTN gossip) holds no in-flight op while it waits, so
// it cannot wedge WaitIdle.
func (h *Host) afterRec(d sim.Time, rec *engine.DeliveryRec) {
	now := h.nowNs()
	h.put(now, now+sim.Time(time.Duration(d)*h.cfg.Tick), rec)
}

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

// Stats returns a copy of the model-level counters. Between Start and Stop
// it synchronises with the executor, so it must not be called from inside Do
// or a handler (read Engine().Stats() there instead); before Start and after
// Stop it reads them directly.
func (h *Host) Stats() engine.Stats {
	if !h.started {
		return h.eng.Stats()
	}
	var st engine.Stats
	if !h.run(func() { st = h.eng.Stats() }) {
		<-h.execDone // stopped: read once the executor has exited
		st = h.eng.Stats()
	}
	return st
}

// Start launches the executor. Algorithms must already be registered.
func (h *Host) Start() {
	if h.started {
		panic("rt: Start called twice")
	}
	h.started = true
	epoch := time.Now()
	h.epoch.Store(&epoch)
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
	if !h.run(fn) {
		panic("rt: Do after Stop")
	}
}

// run runs fn on the executor and waits for it, or reports false at once if
// Stop has closed the task queue.
func (h *Host) run(fn func()) bool {
	done := make(chan struct{})
	if !h.tasks.Push(func() {
		defer close(done)
		fn()
	}) {
		return false
	}
	<-done
	return true
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

// Stop shuts the host down: it closes the stop signal and the task queue,
// waits for the executor if Start ever launched it, stops the due timer and
// abandons the queued records (not freed: the pool is executor-only),
// resolving their op so nothing is left in flight. Safe to call more than
// once and before Start. netrt's Stop calls it, then releases its sockets.
func (h *Host) Stop() {
	h.stopOnce.Do(func() {
		close(h.stopped)
		h.tasks.Close()
		if h.started {
			<-h.execDone
		}
		h.timer.Stop()
		h.queue.Init(SlotShift)
		if h.held > 0 {
			h.held = 0
			h.tasks.OpDone()
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

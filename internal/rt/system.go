// Package rt is the live runtime of the two-tier model: it binds the shared
// network engine (internal/engine) — which owns the MSS/MH registries,
// routing with search and chase, the mobility protocol, and cost accounting
// — to a real executor goroutine and wall-clock latencies, the operational
// style the paper's model describes.
//
// The package has two layers:
//
//   - Host (host.go) is the live shell, shared with internal/netrt: a single
//     executor goroutine runs all algorithm handlers, engine bookkeeping,
//     and cost accounting, so algorithm state needs no locks and behaves
//     exactly as under the simulator; quiescence is tracked by the task
//     queue's in-flight operation counter, letting tests wait for the
//     network to drain; timers are wall timers that land on the executor;
//   - System (this file, transport.go) is Host plus this package's
//     transport: every FIFO channel of the model (each ordered MSS pair,
//     each MSS→MH downlink, each MH uplink) stamps its deliveries with
//     engine.FIFOClock's arrival clamp in wall nanoseconds, and one
//     executor-local queue ordered by that due time steps them on the
//     executor — preserving per-channel FIFO exactly as the model requires,
//     with no goroutine per channel.
//
// Because internal/core binds the same engine to the deterministic kernel,
// the substrates cannot drift: every protocol rule lives in exactly one
// place, and so does the shell around it.
//
// Lifecycle: build (NewSystem, Register, algorithm constructors — single
// threaded), Start, then interact via Do, then WaitIdle / Stop.
package rt

import (
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// System is the live runtime driver: the shared host bound to an
// executor-local due queue. It implements core.Registrar, and the contexts
// it hands out implement core.Context, so any algorithm in this repository
// runs on it unmodified.
type System struct {
	*Host

	// The due queue (transport.go): executor only, or the building goroutine
	// before Start. queued: a drain is on the task queue or running; armed:
	// the timer will queue one at wakeAt. drainFn is s.drain, bound once.
	fifo          *engine.FIFOClock // marks in wall nanoseconds since Start
	queue         dueQueue
	seq           uint64
	queued, armed bool
	wakeAt        sim.Time
	timer         *time.Timer
	drainFn       func()
}

var _ core.Registrar = (*System)(nil)

// NewSystem builds a live system from cfg.
func NewSystem(cfg Config) (*System, error) {
	s := &System{fifo: engine.NewFIFOClockLayout(cfg.M, cfg.N)}
	s.drainFn = s.drain
	s.timer = time.AfterFunc(time.Hour, func() { s.tasks.Push(s.drainFn) })
	s.timer.Stop() // armed by schedule only
	h, err := NewHost(cfg, s)
	if err != nil {
		return nil, err
	}
	s.Host = h
	return s, nil
}

// TransmitRec stamps rec due at the channel's FIFO clamp of now + latency ×
// Tick, in wall nanoseconds since Start (0 before it, as Host.Now), queues it
// and schedules a drain for the head. It runs on the executor, as every
// Substrate method does. The queue holds one in-flight op while non-empty.
func (s *System) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	now := s.nowNs()
	if len(s.queue) == 0 {
		s.tasks.OpStart()
	}
	s.seq++
	s.queue.push(dueRec{s.fifo.Arrival(ch, now, sim.Time(time.Duration(latency)*s.cfg.Tick)), s.seq, rec})
	s.schedule(now)
}

// Stop shuts the runtime down. Queued records are abandoned (not freed: the
// pool is executor-only) and their op resolved, leaving nothing in flight.
func (s *System) Stop() {
	s.Shutdown()
	s.timer.Stop()
	if len(s.queue) > 0 {
		s.queue = nil
		s.tasks.OpDone()
	}
}

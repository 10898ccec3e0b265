// Package rt is the live runtime of the two-tier model: it binds the shared
// network engine (internal/engine) — which owns the MSS/MH registries,
// routing with search and chase, the mobility protocol, and cost accounting
// — to real goroutines and channels with wall-clock latencies, the
// operational style the paper's model describes.
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
//     each MSS→MH downlink, each MH uplink) is a goroutine reading from a
//     Go channel in order, waiting out whatever is left of each message's
//     link latency, and handing it to the executor — preserving per-channel
//     FIFO exactly as the model requires.
//
// Because internal/core binds the same engine to the deterministic kernel,
// the substrates cannot drift: every protocol rule lives in exactly one
// place, and so does the shell around it.
//
// Lifecycle: build (NewSystem, Register, algorithm constructors — single
// threaded), Start, then interact via Do, then WaitIdle / Stop.
package rt

import (
	"sync"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// System is the live runtime driver: the shared host bound to goroutine
// pipes. It implements core.Registrar, and the contexts it hands out
// implement core.Context, so any algorithm in this repository runs on it
// unmodified.
type System struct {
	*Host

	pipesMu sync.Mutex
	pipes   map[int]chan delivery
	wg      sync.WaitGroup
}

var _ core.Registrar = (*System)(nil)

// NewSystem builds a live system from cfg.
func NewSystem(cfg Config) (*System, error) {
	s := &System{pipes: make(map[int]chan delivery)}
	h, err := NewHost(cfg, s)
	if err != nil {
		return nil, err
	}
	s.Host = h
	return s, nil
}

// TransmitRec stamps the delivery record with its due time and hands it to
// the channel's pipe goroutine, which forwards it to the executor once due
// — FIFO by construction. The send races Stop: once the pipe's forward
// goroutine has exited, a full buffer would block the executor forever, so
// a stopped runtime resolves the op and drops the record instead (shutdown
// discards in-flight traffic by design; the record is abandoned, not freed,
// because the pool is executor-only).
func (s *System) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	s.tasks.OpStart()
	select {
	case s.pipe(ch) <- delivery{due: time.Now().Add(time.Duration(latency) * s.cfg.Tick), rec: rec}:
	case <-s.stopped:
		s.tasks.OpDone()
	}
}

// Stop shuts the runtime down and waits for every goroutine to exit.
func (s *System) Stop() {
	s.Shutdown()
	s.wg.Wait()
}

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
//     network to drain; every deferred record waits in one executor-local
//     queue ordered by its wall-clock due time (transport.go);
//   - System (this file) is Host plus this package's transport: every FIFO
//     channel of the model (each ordered MSS pair, each MSS→MH downlink,
//     each MH uplink) stamps its deliveries with engine.FIFOClock's arrival
//     clamp in wall nanoseconds and puts them on the host's due queue —
//     preserving per-channel FIFO exactly as the model requires, with no
//     goroutine per channel.
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

// System is the live runtime driver: the shared host whose due queue is also
// the transport. It implements core.Registrar, and the contexts it hands out
// implement core.Context, so any algorithm in this repository runs on it
// unmodified. Stop is the host's.
type System struct {
	*Host
	fifo *engine.FIFOClock // marks in wall nanoseconds since Start
}

var _ core.Registrar = (*System)(nil)

// NewSystem builds a live system from cfg.
func NewSystem(cfg Config) (*System, error) {
	s := &System{fifo: engine.NewFIFOClockLayout(cfg.M, cfg.N)}
	h, _, err := NewHost(cfg, s.transmit)
	if err != nil {
		return nil, err
	}
	s.Host = h
	return s, nil
}

// transmit is the system's Transport: it puts rec on the host's due queue at
// the channel's FIFO clamp of now + latency × Tick, in wall nanoseconds since
// Start (0 before it, as Host.Now; the drain's instant, inside a drain). It
// runs on the executor, as every Substrate method does.
func (s *System) transmit(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	now := s.nowNs()
	s.put(now, s.fifo.Arrival(ch, now, sim.Time(time.Duration(latency)*s.cfg.Tick)), rec)
}

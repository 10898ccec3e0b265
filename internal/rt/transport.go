package rt

import (
	"time"

	"mobiledist/internal/engine"
)

// The runtime's transport is purely physical: the engine decides what to
// send, on which flat channel id, with which latency (see
// engine.ChannelLayout); this file only moves deliveries. A delivery is
// stamped with its due time — arrival + latency × Tick — when it enters its
// channel's pipe; one goroutine per active channel reads the pipe strictly
// in order, waits only while the head's due time is still ahead, and hands
// it to the executor. In-order handling is the model's per-channel FIFO
// guarantee, and together with the stamp it is the arrival clamp
// engine.FIFOClock applies on the simulator (arrival = max(now + latency,
// the channel's previous arrival)): latencies overlap, so a channel is not
// a serial delay line capped at 1/latency.

// delivery is one message travelling a FIFO channel: once due, interpret
// rec on the executor. The record is opaque to the transport; it is stepped
// (and freed) by the bound sink on the executor goroutine only.
type delivery struct {
	due time.Time
	rec *engine.DeliveryRec
}

// DueTimer is the waiting half of a live link pipe, shared with
// internal/netrt: one reusable timer per pipe goroutine, armed only for a
// due time that is still ahead. The zero value is ready to use.
type DueTimer struct {
	t *time.Timer
}

// Wait blocks until due and reports true, or reports false as soon as stop
// closes. A due time that has passed returns at once without arming the
// timer — at sub-microsecond ticks a pipe never arms one at all.
func (d *DueTimer) Wait(due time.Time, stop <-chan struct{}) bool {
	wait := time.Until(due)
	if wait <= 0 {
		return true
	}
	if d.t == nil {
		d.t = time.NewTimer(wait)
	} else {
		d.t.Reset(wait) // expired and drained by the previous Wait
	}
	select {
	case <-d.t.C:
		return true
	case <-stop:
		d.t.Stop()
		return false
	}
}

// pipe returns (creating on demand) the goroutine-backed FIFO channel for
// the engine's flat channel id.
func (s *System) pipe(ch int) chan delivery {
	s.pipesMu.Lock()
	defer s.pipesMu.Unlock()
	c, ok := s.pipes[ch]
	if ok {
		return c
	}
	c = make(chan delivery, 256)
	s.pipes[ch] = c
	s.wg.Add(1)
	go s.forward(c)
	return c
}

func (s *System) forward(ch chan delivery) {
	defer s.wg.Done()
	var timer DueTimer
	for {
		select {
		case d := <-ch:
			if !timer.Wait(d.due, s.stopped) {
				s.tasks.OpDone()
				return
			}
			s.land(d.rec)
		case <-s.stopped:
			return
		}
	}
}

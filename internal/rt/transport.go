package rt

import (
	"time"

	"mobiledist/internal/engine"
)

// The runtime's transport is purely physical: the engine decides what to
// send, on which flat channel id, with which latency (see
// engine.ChannelCount); this file only moves deliveries. One goroutine per
// active channel reads from a buffered Go channel, sleeps each message's
// latency, and hands it to the executor — strictly in order, which is
// exactly the model's per-channel FIFO guarantee, with no arrival-time
// bookkeeping needed.

// delivery is one message travelling a FIFO channel: sleep latency, then
// interpret rec on the executor. The record is opaque to the transport; it
// is stepped (and freed) by the bound sink on the executor goroutine only.
type delivery struct {
	latency time.Duration
	rec     *engine.DeliveryRec
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
	for {
		select {
		case d := <-ch:
			t := time.NewTimer(d.latency)
			select {
			case <-t.C:
				s.land(d.rec)
			case <-s.stopped:
				t.Stop()
				s.tasks.OpDone()
				return
			}
		case <-s.stopped:
			return
		}
	}
}

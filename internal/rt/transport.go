package rt

import (
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// The runtime's transport only moves deliveries: TransmitRec stamps each
// record with engine.FIFOClock's arrival clamp in wall nanoseconds and pushes
// it on one executor-local min-heap on (due, transmit sequence), so each
// channel lands in transmit order while latencies overlap. One reusable drain
// func steps what is due; one reusable wall timer queues it for a later head.

// drainBatch bounds one drain's steps, so Do callers queued behind it run.
const drainBatch = 256

// dueRec is one record in the due queue; at is wall nanoseconds since Start.
type dueRec struct {
	at  sim.Time
	seq uint64
	rec *engine.DeliveryRec
}

// dueQueue is a value min-heap on (at, seq); container/heap would box pushes.
type dueQueue []dueRec

func (q dueQueue) less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}

func (q *dueQueue) push(d dueRec) {
	*q = append(*q, d)
	h := *q
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

func (q *dueQueue) pop() *engine.DeliveryRec {
	h := *q
	rec, n := h[0].rec, len(h)-1
	h[0], h[n] = h[n], dueRec{}
	h = h[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	*q = h
	return rec
}

// nowNs is the due queue's clock: wall nanoseconds since Start, 0 before it.
func (s *System) nowNs() sim.Time {
	if epoch := s.epoch.Load(); epoch != nil {
		return sim.Time(time.Since(*epoch))
	}
	return 0
}

// schedule makes sure a drain runs by the head's due time: queued now if it
// is due, else on the timer, unless a queued drain or earlier timer covers it.
func (s *System) schedule(now sim.Time) {
	if s.queued || len(s.queue) == 0 {
		return
	}
	head := s.queue[0].at
	if s.armed {
		if head >= s.wakeAt {
			return
		}
		if s.armed = false; !s.timer.Stop() {
			s.queued = true // it fired: its drain is on the way
			return
		}
	}
	if head <= now {
		s.queued = true
		s.tasks.Push(s.drainFn)
		return
	}
	s.armed, s.wakeAt = true, head
	s.timer.Reset(time.Duration(head - now))
}

// drain steps at most drainBatch due records against one clock reading, then
// schedules the next drain once for whatever those steps transmitted.
func (s *System) drain() {
	s.queued, s.armed = true, false
	now := s.nowNs()
	for n := 0; n < drainBatch && len(s.queue) > 0 && s.queue[0].at <= now; n++ {
		rec := s.queue.pop()
		if len(s.queue) == 0 {
			s.tasks.OpDone()
		}
		s.StepRec(rec)
	}
	s.queued = false
	s.schedule(s.nowNs())
}

// DueTimer is the waiting half of internal/netrt's relay pipes: one
// reusable timer per pipe goroutine, armed only for a due time that is
// still ahead. The zero value is ready to use.
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

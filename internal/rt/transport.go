package rt

import (
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// Every deferred record on a live host waits in one executor-local min-heap
// on (due, push sequence), due in wall nanoseconds since Start: AfterRec's
// timers at now + d, System.TransmitRec's deliveries at engine.FIFOClock's
// arrival clamp. One reusable drain func steps what is due; one reusable
// wall timer queues it for a later head.

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
func (h *Host) nowNs() sim.Time {
	if epoch := h.epoch.Load(); epoch != nil {
		return sim.Time(time.Since(*epoch))
	}
	return 0
}

// put queues rec due at time at, with the clock read at now, and schedules a
// drain for the head. The first queued non-daemon record opens the one op.
func (h *Host) put(now, at sim.Time, rec *engine.DeliveryRec) {
	if !rec.Daemon() {
		if h.held == 0 {
			h.tasks.OpStart()
		}
		h.held++
	}
	h.seq++
	h.queue.push(dueRec{at, h.seq, rec})
	h.schedule(now)
}

// schedule makes sure a drain runs by the head's due time: queued now if it
// is due, else on the timer, unless a queued drain or earlier timer covers it.
func (h *Host) schedule(now sim.Time) {
	if h.queued || len(h.queue) == 0 {
		return
	}
	head := h.queue[0].at
	if h.armed {
		if head >= h.wakeAt {
			return
		}
		if h.armed = false; !h.timer.Stop() {
			h.queued = true // it fired: its drain is on the way
			return
		}
	}
	if head <= now {
		h.queued = true
		h.tasks.Push(h.drainFn)
		return
	}
	h.armed, h.wakeAt = true, head
	h.timer.Reset(time.Duration(head - now))
}

// drain steps at most drainBatch due records against one clock reading, then
// schedules once for what they queued. The last non-daemon record out (its
// kind read before StepRec frees it) resolves the op.
func (h *Host) drain() {
	h.queued, h.armed = true, false
	now := h.nowNs()
	for n := 0; n < drainBatch && len(h.queue) > 0 && h.queue[0].at <= now; n++ {
		rec := h.queue.pop()
		if !rec.Daemon() {
			if h.held--; h.held == 0 {
				h.tasks.OpDone()
			}
		}
		h.sink.StepRec(rec)
	}
	h.queued = false
	h.schedule(h.nowNs())
}

// DueTimer is the waiting half of internal/netrt's relay pipes
// (member.pipeLoop, in processes that have no Host): one reusable timer per
// pipe goroutine, armed only for a due time that is still ahead. The zero
// value is ready to use.
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

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
// wall timer queues it for a later head. A drain is one instant: now, for
// every put made while it steps its batch, is the reading it took to decide
// what was due — at most one batch stale, never before the due time of the
// record that made the put (the sim kernel's event-time semantics).

// drainBatch bounds one drain's steps, so Do callers queued behind it run.
const drainBatch = 256

// DueQueue is a value min-heap of payloads on (due, push order): rt.Host's
// records and each internal/netrt relay process's frames. The zero value is
// empty; container/heap would box pushes.
type DueQueue[T any] struct {
	h   []due[T]
	seq uint64
}

// due is one queued payload: due at at, pushed seq-th.
type due[T any] struct {
	at  sim.Time
	seq uint64
	v   T
}

// before reports whether d leaves ahead of e.
func (d *due[T]) before(e *due[T]) bool {
	return d.at < e.at || d.at == e.at && d.seq < e.seq
}

// Len reports how many payloads are queued.
func (q *DueQueue[T]) Len() int { return len(q.h) }

// Head returns the earliest due time queued; the queue must not be empty.
func (q *DueQueue[T]) Head() sim.Time { return q.h[0].at }

// Push queues v due at at, behind everything already queued at at. Push
// and Pop move the one element they place into a hole, once.
func (q *DueQueue[T]) Push(at sim.Time, v T) {
	q.seq++
	d := due[T]{at, q.seq, v}
	h := append(q.h, d)
	i := len(h) - 1
	for ; i > 0 && d.before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = d
	q.h = h
}

// Pop removes and returns the head; the queue must not be empty.
func (q *DueQueue[T]) Pop() T {
	h := q.h
	v, n := h[0].v, len(h)-1
	last := h[n]
	h[n] = due[T]{}
	h = h[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i], i = h[c], c
	}
	if n > 0 {
		h[i] = last
	}
	q.h = h
	return v
}

// nowNs is the due queue's clock: wall nanoseconds since Start, 0 before it.
// Inside a drain it is the drain's one reading, so the records it steps
// transmit and arm timers without reading the clock again.
func (h *Host) nowNs() sim.Time {
	if h.draining {
		return h.instant
	}
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
	h.queue.Push(at, rec)
	h.schedule(now)
}

// schedule makes sure a drain runs by the head's due time: queued now if it
// is due, else on the timer, unless a queued drain or earlier timer covers it.
func (h *Host) schedule(now sim.Time) {
	if h.queued || h.queue.Len() == 0 {
		return
	}
	head := h.queue.Head()
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

// drain steps at most drainBatch due records against one clock reading, the
// drain's instant, then schedules once for what they queued against a fresh
// one. The last non-daemon record out (its kind read before StepRec frees
// it) resolves the op.
func (h *Host) drain() {
	h.queued, h.armed = true, false
	now := h.nowNs()
	h.instant, h.draining = now, true
	for n := 0; n < drainBatch && h.queue.Len() > 0 && h.queue.Head() <= now; n++ {
		rec := h.queue.Pop()
		if !rec.Daemon() {
			if h.held--; h.held == 0 {
				h.tasks.OpDone()
			}
		}
		h.sink.StepRec(rec)
	}
	h.queued, h.draining = false, false
	h.schedule(h.nowNs())
}

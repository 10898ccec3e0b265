package rt

import (
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// Every deferred record on a live host waits in one executor-local
// sim.Queue, due in wall nanoseconds since Start: afterRec's timers at
// now + d, System.transmit's deliveries at engine.FIFOClock's arrival
// clamp. One reusable drain func steps what is due, never early; one
// reusable wall timer queues it for a later front. A drain is one instant:
// now, for every put made while it steps its batch, is the reading it took
// to decide what was due — at most one batch stale, never before the due
// time of the record that made the put (the sim kernel's event-time
// semantics).

// drainBatch bounds one drain's steps, so Do callers queued behind it run.
const drainBatch = 256

// SlotShift sets the slot width of the live event queues (rt.Host's, each
// netrt relay process's) to 1<<SlotShift ns, 16.4 µs: a due record waits at
// most that long behind a front that is not yet due (DESIGN §7).
const SlotShift = 14

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
	h.queue.Push(at, sim.Due[*engine.DeliveryRec]{At: at, V: rec})
	h.schedule(now)
}

// schedule makes sure a drain runs by the head's due time: queued now if it
// is due, else on the timer, unless a queued drain or earlier timer covers it.
func (h *Host) schedule(now sim.Time) {
	if h.queued || h.queue.Len() == 0 {
		return
	}
	head := h.queue.Front().At
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
	for n := 0; n < drainBatch; n++ {
		if d := h.queue.Front(); d == nil || d.At > now {
			break
		}
		rec := h.queue.Pop().V
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

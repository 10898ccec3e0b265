package netrt

import (
	"sync"
	"time"

	"mobiledist/internal/wire"
)

// fifo is an unbounded FIFO of frames with a blocking consumer: a peer's
// outbox, the frames awaiting a healthy connection. Unboundedness matters
// for the same reason as in internal/execq: producers include the hub
// executor and socket readers, neither of which may ever block on a slow
// consumer, or the runtime can deadlock against its own deliveries.
//
// The consumer works in batches with ack semantics: peek hands it
// everything queued without removing it, consume removes the batch once it
// has actually been handled (for an outbox: written and flushed), so a
// dropped connection retries the whole batch on the next one. A warm
// put/peek/consume cycle allocates nothing: consume keeps the array.
//
// The queue carries an epoch so owners can clear it out from under a
// consumer safely: peek returns the epoch it observed and consume only
// removes the batch if the epoch still matches. A writer that peeked a
// batch, wrote it to a connection, and then lost a clear race simply
// consumes nothing — so it can never pop frames queued after the clear —
// and the frames it wrote were re-sent by whoever cleared (resync replay);
// the receiving side suppresses the duplicates.
type fifo struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []wire.Frame
	epoch  uint64
	closed bool
}

func newFifo() *fifo {
	q := &fifo{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put appends f. It reports false if the queue is closed.
func (q *fifo) put(f wire.Frame) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, f)
	q.cond.Signal()
	return true
}

// peek blocks until something is queued or the queue closes, then returns
// everything queued — a read-only view, valid until the matching consume —
// and the epoch to pass to it. Until that consume, producers only ever append
// past the view or move to a fresh array, so the consumer reads it without
// the lock.
func (q *fifo) peek() ([]wire.Frame, uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, 0, false
	}
	return q.items, q.epoch, true
}

// consume removes the n-item batch a peek returned — unless the queue was
// cleared since, in which case handling the batch was a harmless duplicate
// and nothing is removed.
func (q *fifo) consume(epoch uint64, n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.epoch != epoch {
		return
	}
	// What was queued behind the batch slides to the front, so the array is
	// reused rather than stranded: the batch view is dead once consumed and
	// its reader is the only consumer, so producers may overwrite it. The
	// vacated tail is cleared, dropping the frames' payloads.
	m := copy(q.items, q.items[n:])
	clear(q.items[m:])
	q.items = q.items[:m]
	if m == 0 {
		q.cond.Broadcast() // wake drain waiters
	}
}

// clear drops every queued item and bumps the epoch, invalidating any
// in-flight peek/consume pair. Used when a peer is declared dead: its
// suffix is re-sent by the resync replay, so retaining stale frames would
// only interleave duplicates ahead of the replayed order.
func (q *fifo) clear() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = nil
	q.epoch++
	q.cond.Broadcast()
}

// depth reports the number of queued items (for /status).
func (q *fifo) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// waitDrained blocks until the queue empties, abort() reports true, the
// queue closes, or the deadline passes, reporting whether it drained. The
// abort predicate is re-evaluated on every wake-up; callers whose predicate
// depends on external state (a peer's connection) must arrange for wake to
// be called when that state changes.
func (q *fifo) waitDrained(deadline time.Time, abort func() bool) bool {
	timer := time.AfterFunc(time.Until(deadline), q.wake)
	defer timer.Stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) > 0 && !q.closed {
		if abort != nil && abort() {
			return false
		}
		if !time.Now().Before(deadline) {
			return false
		}
		q.cond.Wait()
	}
	return len(q.items) == 0
}

// wake broadcasts to all waiters (drain waiters re-check their predicate).
func (q *fifo) wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// close wakes all consumers; queued items are still served until empty.
func (q *fifo) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

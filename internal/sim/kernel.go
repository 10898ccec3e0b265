// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an event heap. Events scheduled
// for the same instant fire in scheduling order (stable tie-break on a
// monotonically increasing sequence number), so a run is a pure function of
// its inputs and RNG seed. All algorithm state machines in this repository
// execute on a single kernel goroutine; no locking is required in simulation
// mode.
//
// The event queue is a value-typed 4-ary min-heap ordered by (at, seq).
// Events are stored inline in a flat slice — no per-event pointer, no
// interface boxing through container/heap — so scheduling is allocation-free
// in steady state. Because (at, seq) is a total order, the pop sequence is
// identical to any correct priority queue over the same events; replacing
// the previous container/heap binary heap changed no observable schedule.
//
// For million-host simulations, NewShardedKernel replaces the single heap
// with per-shard time-bucket heaps under a small top-level merge (see
// sharded.go). The pop sequence is still exactly the (at, seq) total order,
// so a sharded kernel is byte-identical to a single-heap kernel on seeded
// runs; the single-heap kernel remains the oracle the sharded queue is
// fuzzed against.
package sim

import (
	"errors"
	"fmt"
)

// Time is virtual simulation time in abstract ticks.
type Time int64

// event is a scheduled callback, stored by value in the kernel's heap: an
// invoker plus one opaque argument. Plain func() events use the package's
// static runFn invoker with the closure as the argument; callers on the
// allocation-free path (the engine's pooled delivery records) pass a
// long-lived invoker and a pointer argument, so neither word boxes — func
// values and pointers are stored directly in an interface.
type event struct {
	at  Time
	seq uint64
	do  func(any)
	arg any
}

// runFn is the invoker for plain func() events.
func runFn(a any) { a.(func())() }

// before is the heap order: earliest time first, scheduling order within a
// tick. seq is unique, so this is a total order and the pop sequence is
// fully determined by the scheduled set.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// ErrNegativeDelay is returned by ScheduleErr when asked to schedule an
// event in the past.
var ErrNegativeDelay = errors.New("sim: negative delay")

// Kernel is a deterministic discrete-event scheduler.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by (at, seq); unused when sq != nil
	sq     *shardQueue
	rng    *RNG

	// stepLimit bounds the number of events processed by Run as a
	// runaway-protocol backstop; 0 means no limit.
	stepLimit uint64
	steps     uint64
}

// NewKernel returns a kernel whose RNG is seeded with seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// NewShardedKernel returns a kernel whose pending-event set is partitioned
// into the given number of shards (rounded up to a power of two) selected
// by the key passed to ScheduleKeyed/ScheduleCallAtKeyed. Scheduling and pop
// order are byte-identical to NewKernel for the same calls; shards only
// change the data structure's constants (see sharded.go). shards <= 1
// returns a plain single-heap kernel.
func NewShardedKernel(seed uint64, shards int) *Kernel {
	k := NewKernel(seed)
	if shards > 1 {
		k.sq = newShardQueue(shards)
	}
	return k
}

// Shards reports the shard count of the pending-event set (1 for a
// single-heap kernel).
func (k *Kernel) Shards() int {
	if k.sq == nil {
		return 1
	}
	return len(k.sq.shards)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random number generator.
func (k *Kernel) RNG() *RNG { return k.rng }

// SetStepLimit bounds the total number of events Run may process.
// A limit of 0 (the default) means unbounded.
func (k *Kernel) SetStepLimit(n uint64) { k.stepLimit = n }

// Steps reports how many events have been processed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// push inserts ev, sifting up with a hole instead of pairwise swaps.
func (k *Kernel) push(ev event) {
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	k.events = h
}

// pop removes and returns the minimum event. The caller must ensure the
// heap is non-empty.
func (k *Kernel) pop() event {
	h := k.events
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback reference
	h = h[:n]
	if n > 0 {
		// Sift last down from the root: at each level pick the smallest of
		// up to four children, move it up, descend into its slot.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			best := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[best]) {
					best = j
				}
			}
			if !h[best].before(&last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	k.events = h
	return min
}

// Schedule runs fn after delay ticks of virtual time. A zero delay runs fn
// after all currently executing work, preserving scheduling order.
// Negative delays panic: they indicate a protocol bug, not a runtime
// condition a caller could recover from.
func (k *Kernel) Schedule(delay Time, fn func()) {
	if err := k.ScheduleErr(delay, fn); err != nil {
		panic(fmt.Sprintf("sim: schedule: %v", err))
	}
}

// ScheduleErr is Schedule returning an error instead of panicking.
func (k *Kernel) ScheduleErr(delay Time, fn func()) error {
	return k.ScheduleKeyedErr(0, delay, fn)
}

// ScheduleKeyed is Schedule with a shard key: callers with a natural
// partition (the engine's flat channel ids) spread their events across the
// sharded queue. On a single-heap kernel the key is ignored; the schedule
// is identical either way.
func (k *Kernel) ScheduleKeyed(key int, delay Time, fn func()) {
	if err := k.ScheduleKeyedErr(key, delay, fn); err != nil {
		panic(fmt.Sprintf("sim: schedule: %v", err))
	}
}

// ScheduleKeyedErr is ScheduleKeyed returning an error instead of
// panicking.
func (k *Kernel) ScheduleKeyedErr(key int, delay Time, fn func()) error {
	if fn == nil {
		return errors.New("sim: nil event function")
	}
	return k.ScheduleCallKeyedErr(key, delay, runFn, fn)
}

// ScheduleCallAtKeyed runs do(arg) at absolute virtual time at (which must
// not be in the past), under shard key key. No closure is needed — a caller
// with a long-lived invoker and a pointer argument (the engine's pooled
// delivery records) schedules without allocating.
func (k *Kernel) ScheduleCallAtKeyed(key int, at Time, do func(any), arg any) error {
	if at < k.now {
		return ErrNegativeDelay
	}
	return k.ScheduleCallKeyedErr(key, at-k.now, do, arg)
}

// ScheduleCallKeyedErr is the funnel every schedule path goes through: it
// assigns the sequence number and routes the event to the now-queue, the
// sharded queue, or the single heap.
func (k *Kernel) ScheduleCallKeyedErr(key int, delay Time, do func(any), arg any) error {
	if delay < 0 {
		return ErrNegativeDelay
	}
	if do == nil {
		return errors.New("sim: nil event function")
	}
	k.seq++
	if q := k.sq; q != nil {
		if delay == 0 {
			// An event for the current instant can never precede anything
			// already queued at it (seq only grows), so it skips the heaps
			// entirely; see the now-queue ordering argument in sharded.go.
			q.pushNow(do, arg)
		} else {
			q.push(key, event{at: k.now + delay, seq: k.seq, do: do, arg: arg})
		}
		return nil
	}
	k.push(event{at: k.now + delay, seq: k.seq, do: do, arg: arg})
	return nil
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	if k.sq != nil {
		return k.sq.pending()
	}
	return len(k.events)
}

// nextAt returns the timestamp of the earliest queued event.
func (k *Kernel) nextAt() (Time, bool) {
	if q := k.sq; q != nil {
		if q.nowHead < len(q.nowQ) {
			return k.now, true
		}
		at, _, ok := q.peek()
		return at, ok
	}
	if len(k.events) == 0 {
		return 0, false
	}
	return k.events[0].at, true
}

// Step processes the single earliest event. It reports whether an event was
// processed.
func (k *Kernel) Step() bool {
	if k.sq != nil {
		return k.stepSharded()
	}
	if len(k.events) == 0 {
		return false
	}
	ev := k.pop()
	k.now = ev.at
	k.steps++
	ev.do(ev.arg)
	return true
}

// stepSharded is Step on the sharded queue. Shard-held events at the
// current instant run before the now-queue (they carry smaller seqs — see
// sharded.go); then the now-queue drains FIFO; then the clock advances to
// the next shard-held timestamp.
func (k *Kernel) stepSharded() bool {
	q := k.sq
	at, _, ok := q.peek()
	switch {
	case ok && at == k.now:
		ev := q.pop()
		k.steps++
		ev.do(ev.arg)
	case q.nowHead < len(q.nowQ):
		do, arg := q.popNow()
		k.steps++
		do(arg)
	case ok:
		ev := q.pop()
		k.now = ev.at
		k.steps++
		ev.do(ev.arg)
	default:
		return false
	}
	return true
}

// Run processes events until the queue drains or the step limit is hit.
// It returns an error if the step limit was exhausted with work remaining.
func (k *Kernel) Run() error {
	for k.Step() {
		if k.stepLimit != 0 && k.steps >= k.stepLimit {
			if k.Pending() > 0 {
				return fmt.Errorf("sim: step limit %d reached with %d events pending", k.stepLimit, k.Pending())
			}
			return nil
		}
	}
	return nil
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) error {
	for {
		at, ok := k.nextAt()
		if !ok || at > deadline {
			break
		}
		k.Step()
		if k.stepLimit != 0 && k.steps >= k.stepLimit {
			return fmt.Errorf("sim: step limit %d reached at t=%d", k.stepLimit, k.now)
		}
	}
	if k.now < deadline {
		k.now = deadline
	}
	return nil
}

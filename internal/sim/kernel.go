// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a pending-event set. Events
// scheduled for the same instant fire in scheduling order (stable tie-break
// on a monotonically increasing sequence number), so a run is a pure
// function of its inputs and RNG seed. All algorithm state machines in this
// repository execute on a single kernel goroutine; no locking is required in
// simulation mode.
//
// The pending set is a Queue (queue.go) one tick per slot. Simulated
// traffic crowds a few instants (sim-route holds ~10^5 events over a few
// dozen ticks), so scheduling is an append to a run and stepping a read from
// one, with no sift through a standing heap, and the pop sequence is exactly
// the (at, seq) total order of any correct priority queue over the same
// events. A step prefetches the argument of the event a few places further
// down its run.
//
// NewShardedKernel replaces the wheel with per-shard time-bucket heaps under
// a small top-level merge (see sharded.go). Its pop sequence is the same
// total order, so a sharded kernel is byte-identical to the wheel on seeded
// runs; FuzzShardedKernelOracle holds the two against each other.
package sim

import (
	"errors"
	"fmt"
	"unsafe"
)

// Time is virtual simulation time in abstract ticks.
type Time int64

// slot is one event in the kernel's Queue: an invoker and one argument.
// Plain func() events pass runFn and the closure; the allocation-free path
// (the engine's pooled delivery records) passes a long-lived invoker and a
// pointer, so neither word boxes.
type slot struct {
	do  func(any)
	arg any
}

// prefetchAhead is how far past the front of a run Step prefetches, in
// events; it must stay below chunkLen. In a sweep of 4/8/16/32, 8 had the
// best median on sim-route and sim-chase and no distance moved sim-custody
// beyond spread (DESIGN §7).
const prefetchAhead = 8

// prefetchArg prefetches what arg points at: the data word of the
// interface, which for a pointer argument is the pointer itself. Unwritten
// slots hold nil and are skipped.
func prefetchArg(arg any) {
	if p := (*[2]unsafe.Pointer)(unsafe.Pointer(&arg))[1]; p != nil {
		prefetch(uintptr(p))
	}
}

// runFn is the invoker for plain func() events.
func runFn(a any) { a.(func())() }

// ErrNegativeDelay is returned by ScheduleErr when asked to schedule an
// event in the past.
var ErrNegativeDelay = errors.New("sim: negative delay")

// Kernel is a deterministic discrete-event scheduler.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	q Queue[slot] // one tick per slot, cursor at now (unused when sq != nil)

	sq  *shardQueue
	rng *RNG

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
// returns the wheel kernel NewKernel builds.
func NewShardedKernel(seed uint64, shards int) *Kernel {
	k := NewKernel(seed)
	if shards > 1 {
		k.sq = newShardQueue(shards)
	}
	return k
}

// Shards reports the shard count of the pending-event set (1 for the wheel
// kernel).
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

// Schedule runs fn after delay ticks of virtual time. A zero delay runs fn
// after all currently executing work, preserving scheduling order.
// Negative delays panic: they indicate a protocol bug, not a runtime
// condition a caller could recover from.
func (k *Kernel) Schedule(delay Time, fn func()) { k.ScheduleKeyed(0, delay, fn) }

// ScheduleErr is Schedule returning an error instead of panicking.
func (k *Kernel) ScheduleErr(delay Time, fn func()) error {
	return k.ScheduleKeyedErr(0, delay, fn)
}

// ScheduleKeyed is Schedule with a shard key: callers with a natural
// partition (the engine's flat channel ids) spread their events across the
// sharded queue. On the wheel kernel the key is ignored; the schedule
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
// routes the event to the sharded queue (numbered; its now-queue or a
// shard), or to the wheel (a run or the far heap).
func (k *Kernel) ScheduleCallKeyedErr(key int, delay Time, do func(any), arg any) error {
	if delay < 0 {
		return ErrNegativeDelay
	}
	if do == nil {
		return errors.New("sim: nil event function")
	}
	if q := k.sq; q != nil {
		k.seq++ // the wheel numbers its own far entries
		if delay == 0 {
			// An event for the current instant can never precede anything
			// already queued at it (seq only grows), so it skips the heaps
			// entirely; see the now-queue ordering argument in sharded.go.
			q.pushNow(do, arg)
		} else {
			q.push(key, farEntry[slot]{k.now + delay, k.seq, slot{do, arg}})
		}
		return nil
	}
	if delay < wheelSpan { // Push's near case, without its call
		k.q.pushNear(k.now+delay, slot{do, arg})
	} else {
		k.q.Push(k.now+delay, slot{do, arg})
	}
	return nil
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	if k.sq != nil {
		return k.sq.pending()
	}
	return k.q.Len()
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
	return k.q.next()
}

// Step processes the single earliest event. It reports whether an event was
// processed.
func (k *Kernel) Step() bool {
	if k.sq != nil {
		return k.stepSharded()
	}
	at, ok := k.nextAt()
	if !ok {
		return false
	}
	if at != k.now {
		k.now = at
		k.q.advance(at)
	}
	r := &k.q.wheel[at&(wheelSpan-1)]
	if i := r.r + prefetchAhead; i < chunkLen {
		prefetchArg(r.head.ev[i].arg)
	} else if n := r.head.next; n != nil {
		prefetchArg(n.ev[i-chunkLen].arg)
	}
	s := k.q.popNear(at)
	k.steps++
	s.do(s.arg)
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
		ev.v.do(ev.v.arg)
	case q.nowHead < len(q.nowQ):
		do, arg := q.popNow()
		k.steps++
		do(arg)
	case ok:
		ev := q.pop()
		k.now = ev.at
		k.steps++
		ev.v.do(ev.v.arg)
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
		if k.sq == nil {
			k.q.advance(deadline)
		}
	}
	return nil
}

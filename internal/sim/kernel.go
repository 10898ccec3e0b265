// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a pending-event set. Events
// scheduled for the same instant fire in scheduling order (stable tie-break
// on a monotonically increasing sequence number), so a run is a pure
// function of its inputs and RNG seed. All algorithm state machines in this
// repository execute on a single kernel goroutine; no locking is required in
// simulation mode.
//
// The pending set is a timing wheel: one FIFO run per tick for the
// wheelSpan ticks starting at the current instant, plus a 4-ary (at, seq)
// heap for events scheduled further ahead. Simulated traffic crowds a few
// instants (sim-route holds ~10^5 events over a few dozen ticks), so
// scheduling is an append to a run and stepping a read from one, with no
// sift through a standing heap. The pop sequence is exactly the (at, seq)
// total order of any correct priority queue over the same events (the
// argument is on Kernel.advance), so the wheel changed no observable
// schedule. Runs are linked fixed-size chunks from one free list, so
// scheduling is allocation-free in steady state, and a step prefetches the
// argument of the event a few places further down its run.
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

// event is a scheduled callback, stored by value in the kernel's far heap:
// an invoker plus one opaque argument. Plain func() events use the package's
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

// wheelSpan is the number of ticks the wheel covers, a power of two. Events
// due within it are appended to their tick's run; later ones wait in the far
// heap. Link, travel and workload delays are a few dozen ticks at most; in a
// sweep of 64/256/1024 on the sim workloads no span beat 256 beyond
// run-to-run spread, and 64 trailed on sim-chase and sim-custody (DESIGN §7).
const wheelSpan = 256

// chunkLen is the number of events in one run chunk: 128 × 24 B, about 3 KB.
// sim-route's busiest tick (33k events) takes ~260 chunks; a tick holding a
// handful of events takes one.
const chunkLen = 128

// prefetchAhead is how far past the front of a run popNear prefetches,
// in events; it must stay below chunkLen. In a sweep of 4/8/16/32, 8 had
// the best median on sim-route and sim-chase and no distance moved
// sim-custody beyond spread (DESIGN §7).
const prefetchAhead = 8

// slot is one event in a run; the tick is the run's, and the order is the
// run's position, so neither at nor seq is stored.
type slot struct {
	do  func(any)
	arg any
}

// prefetchArg prefetches what arg points at: the data word of the
// interface, which for a pointer argument is the pointer itself. Unwritten
// slots hold nil and are skipped.
func prefetchArg(arg any) {
	if p := (*[2]unsafe.Pointer)(unsafe.Pointer(&arg))[1]; p != nil {
		prefetch(uintptr(p))
	}
}

// chunk is a fixed block of a run, linked to the next block of the same run
// or, on the kernel's free list, to the next free chunk.
type chunk struct {
	ev   [chunkLen]slot
	next *chunk
}

// run is the FIFO of events due at one tick: chunks from head to tail, read
// at head.ev[r] and written at tail.ev[w]. An empty run holds no chunk.
type run struct {
	head, tail *chunk
	r, w       int
}

// runFn is the invoker for plain func() events.
func runFn(a any) { a.(func())() }

// before is the far heap's order: earliest time first, scheduling order
// within a tick. seq is unique, so this is a total order and the pop
// sequence is fully determined by the scheduled set.
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
	now Time
	seq uint64

	// The wheel (unused when sq != nil): every event due in
	// [now, now+wheelSpan) is in wheel[at%wheelSpan], and near counts them;
	// every later one is in far, a 4-ary min-heap ordered by (at, seq).
	wheel [wheelSpan]run
	near  int
	far   []event
	free  *chunk // drained chunks, linked by next

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

// push inserts ev into the far heap, sifting up with a hole instead of
// pairwise swaps.
func (k *Kernel) push(ev event) {
	h := append(k.far, ev)
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
	k.far = h
}

// pop removes and returns the far heap's minimum event. The caller must
// ensure the heap is non-empty.
func (k *Kernel) pop() event {
	h := k.far
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
	k.far = h
	return min
}

// pushNear appends an event due at at, which must lie in
// [now, now+wheelSpan), to its tick's run.
func (k *Kernel) pushNear(at Time, do func(any), arg any) {
	r := &k.wheel[at&(wheelSpan-1)]
	if r.tail == nil || r.w == chunkLen {
		c := k.free
		if c != nil {
			k.free, c.next = c.next, nil
		} else {
			c = new(chunk)
		}
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail, r.w = c, 0
	}
	r.tail.ev[r.w] = slot{do: do, arg: arg}
	r.w++
	k.near++
}

// popNear removes the front of the run due at at, which must be non-empty,
// returning each chunk it finishes to the free list. It first prefetches
// the argument of the event prefetchAhead places past the front — for
// engine events, the delivery record that step will read — so that miss
// overlaps the steps in between.
func (k *Kernel) popNear(at Time) slot {
	r := &k.wheel[at&(wheelSpan-1)]
	c := r.head
	if i := r.r + prefetchAhead; i < chunkLen {
		prefetchArg(c.ev[i].arg)
	} else if c.next != nil {
		prefetchArg(c.next.ev[i-chunkLen].arg)
	}
	s := c.ev[r.r]
	c.ev[r.r] = slot{} // release the callback references
	r.r++
	k.near--
	switch {
	case c == r.tail && r.r == r.w:
		*r = run{}
	case r.r == chunkLen:
		r.head, r.r = c.next, 0
	default:
		return s
	}
	c.next, k.free = k.free, c
	return s
}

// advance moves the clock forward to t, which must not pass a queued event,
// and slides the window with it: every far event due before t+wheelSpan
// joins its run now, before the window can admit a direct push for its tick.
//
// That is the whole ordering argument. A run holds one tick T (the window is
// wheelSpan wide and nothing before now is queued). An event for T went to
// the far heap iff T was beyond the window when it was scheduled, so every
// far event for T was scheduled, and numbered, before every direct push for
// T; the far heap yields them in (at, seq) order, and pushes append in seq
// order. A run therefore drains in seq order, and runs are visited in tick
// order, which is the (at, seq) total order.
func (k *Kernel) advance(t Time) {
	k.now = t
	for len(k.far) > 0 && k.far[0].at-t < wheelSpan {
		ev := k.pop()
		k.pushNear(ev.at, ev.do, ev.arg)
	}
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
// assigns the sequence number and routes the event to the sharded queue
// (its now-queue or a shard), or to the wheel (a run or the far heap).
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
	if delay < wheelSpan {
		k.pushNear(k.now+delay, do, arg)
	} else {
		k.push(event{at: k.now + delay, seq: k.seq, do: do, arg: arg})
	}
	return nil
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int {
	if k.sq != nil {
		return k.sq.pending()
	}
	return k.near + len(k.far)
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
	if k.near > 0 {
		// Some run in the window is non-empty: the first one from now on.
		for t := k.now; ; t++ {
			if k.wheel[t&(wheelSpan-1)].head != nil {
				return t, true
			}
		}
	}
	if len(k.far) > 0 {
		return k.far[0].at, true
	}
	return 0, false
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
		k.advance(at)
	}
	s := k.popNear(at)
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
	switch {
	case k.now >= deadline:
	case k.sq != nil:
		k.now = deadline
	default:
		k.advance(deadline)
	}
	return nil
}

package sim

// Sharded event scheduling, the alternative to the kernel's timing wheel.
//
// It was built for the single 4-ary heap the wheel replaced, which at N=10^6
// hosts sifted every push and pop through ~10 levels of a multi-megabyte
// array. The wheel removes that sift for every event due within its span, and
// in paired RunScale route runs it is faster than 512 shards at N=10^4, 10^5
// and 10^6 and holds less memory (DESIGN §7.1); whether this queue stays is
// ROADMAP item 4's call. It partitions the pending set by a caller-supplied
// key (the engine passes its flat channel id, so each shard owns a slice of
// the channel/cell space) and exploits two structural facts about
// discrete-event traffic in this repository:
//
//  1. Arrival times collide. FIFO clamping (engine.FIFOClock) pins every
//     message on a busy channel to the channel's high-water mark, and wave
//     workloads inject batches at shared instants. Events at one (shard,
//     time) are therefore stored as a run — one bucket holding the events
//     in scheduling order — and a run drains by bumping a head index, with
//     no re-heapify per event. Only when a bucket empties does its shard's
//     heap pop.
//
//  2. Zero-delay scheduling is common (Substrate.Enqueue, waiter wakeups).
//     An event scheduled for the current instant can never precede anything
//     already queued at that instant (sequence numbers only grow), so it
//     goes to a plain FIFO now-queue and costs an append and a slice read —
//     no heap at all.
//
// Determinism contract: the pop order is exactly the wheel kernel's
// (at, seq) total order, proven by construction:
//
//   - Within a bucket, events append in seq order (seq is globally
//     monotone), so a run drains in seq order.
//   - Within a shard, the bucket map gives at most one bucket per time, so
//     the shard's 4-ary heap of (time, bucket) pairs needs no tie-break.
//   - Across shards, the top-level merge heap orders shard heads by
//     (at, head seq) — a total order, since seqs are globally unique.
//   - The now-queue only ever holds events scheduled while the clock
//     already stood at their timestamp; any event at the same time still
//     inside the shard heaps was scheduled strictly earlier (a positive
//     delay lands strictly later than now, so a shard-held event at time t
//     was pushed while the clock was before t) and so carries a smaller
//     seq. Draining shards-first at the current instant, then the
//     now-queue in FIFO order, is therefore exactly seq order.
//
// FuzzShardedKernelOracle cross-checks this against the wheel kernel on
// arbitrary keyed op streams, and TestShardedKernelMatchesSingleHeap pins a
// long mixed workload.

// bucketEvent is one queued callback inside a time bucket. The timestamp
// lives on the bucket, so each event costs 32 bytes (seq, invoker, arg) —
// and nothing else on the record path, where the argument is a pooled
// delivery record rather than a fresh closure.
type bucketEvent struct {
	seq uint64
	do  func(any)
	arg any
}

// bucket is the run of events scheduled for one (shard, time). Buckets are
// pooled per shard: a drained bucket returns to the free list with its
// events slice retained, so steady-state scheduling allocates nothing.
type bucket struct {
	at     Time
	events []bucketEvent
	head   int
}

// bref is a shard-heap entry: the bucket's time plus its arena index,
// inlined so sift comparisons stay inside the heap array.
type bref struct {
	at  Time
	idx int32
}

// timeSlots sizes each shard's direct-mapped time→bucket cache. In-flight
// delays span a narrow window of instants (FIFO clamps, waits, link
// latencies, and travel times up to a few dozen ticks), so 256 slots keyed
// by the low time bits cover the live window nearly collision-free at 4KB
// per shard.
const timeSlots = 256

// timeSlot is one entry of the direct-mapped cache: the cached time and the
// arena index of its live bucket, idx < 0 when the entry is vacated. The
// zero value never matches a real push (events land strictly after time 0).
type timeSlot struct {
	at  Time
	idx int32
}

// shard owns the pending events of one key-partition: a 4-ary min-heap of
// time buckets (unique times, so ordered by time alone), the time→bucket
// index, and a bucket free list.
type shard struct {
	heap    []bref
	buckets []bucket
	free    []int32
	byTime  map[Time]int32
	// slots is a direct-mapped cache in front of byTime: if slots[h(at)]
	// holds (at, idx) with idx >= 0, then byTime[at] == idx. Retiring a
	// bucket vacates its slot, and a colliding insert just overwrites (the
	// displaced time is still in byTime), so a hit is authoritative. Most
	// pushes resolve here — an array probe instead of a map lookup.
	slots [timeSlots]timeSlot
}

// alloc takes a bucket from the free list (or grows the arena) for time at.
func (s *shard) alloc(at Time) int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		b := &s.buckets[idx]
		b.at, b.head = at, 0
		b.events = b.events[:0]
	} else {
		idx = int32(len(s.buckets))
		s.buckets = append(s.buckets, bucket{at: at})
	}
	return idx
}

// pushHeap inserts br, sifting up with a hole. It reports whether br became
// the new minimum (the caller then fixes the top-level merge).
func (s *shard) pushHeap(br bref) bool {
	h := append(s.heap, br)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if br.at >= h[p].at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = br
	s.heap = h
	return i == 0
}

// popHeap removes the minimum bref. The caller must ensure non-emptiness.
func (s *shard) popHeap() {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
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
				if h[j].at < h[best].at {
					best = j
				}
			}
			if h[best].at >= last.at {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	s.heap = h
}

// headKey returns the shard's minimum (at, seq); the shard must be
// non-empty.
func (s *shard) headKey() (Time, uint64) {
	b := &s.buckets[s.heap[0].idx]
	return b.at, b.events[b.head].seq
}

// mergeEnt is a top-level merge-heap entry: one non-empty shard plus a
// cached copy of its head key. Caching (at, seq) inline keeps merge
// comparisons inside the heap array — a few KB that stays in L1 — instead
// of chasing shard→heap→bucket→events pointers on every sift.
type mergeEnt struct {
	at    Time
	seq   uint64
	shard int32
}

// shardQueue is the sharded pending-event set: per-key shards plus the
// top-level merge heap and the current-instant now-queue.
type shardQueue struct {
	mask   int
	shards []shard

	// merge is a binary min-heap of non-empty shards ordered by cached head
	// (at, seq); pos[s] is shard s's position in merge, -1 when s is empty.
	// With at most a few hundred shards the whole structure stays within a
	// few cache lines, so fixing it per pop is far cheaper than sifting a
	// million-event heap.
	merge []mergeEnt
	pos   []int32

	size int // events held by shards (excludes the now-queue)

	nowQ    []bucketEvent
	nowHead int
}

func newShardQueue(shards int) *shardQueue {
	if shards < 1 {
		shards = 1
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	q := &shardQueue{mask: n - 1, shards: make([]shard, n), pos: make([]int32, n)}
	for i := range q.shards {
		q.shards[i].byTime = make(map[Time]int32)
		q.pos[i] = -1
	}
	return q
}

// less orders merge entries i and j by cached head (at, seq).
func (q *shardQueue) less(i, j int) bool {
	a, b := &q.merge[i], &q.merge[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *shardQueue) mergeSwap(i, j int) {
	q.merge[i], q.merge[j] = q.merge[j], q.merge[i]
	q.pos[q.merge[i].shard] = int32(i)
	q.pos[q.merge[j].shard] = int32(j)
}

func (q *shardQueue) mergeUp(i int) {
	for i > 0 {
		p := (i - 1) >> 1
		if !q.less(i, p) {
			break
		}
		q.mergeSwap(i, p)
		i = p
	}
}

func (q *shardQueue) mergeDown(i int) {
	n := len(q.merge)
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q.mergeSwap(i, c)
		i = c
	}
}

func (q *shardQueue) mergeInsert(s int32, at Time, seq uint64) {
	q.merge = append(q.merge, mergeEnt{at: at, seq: seq, shard: s})
	q.pos[s] = int32(len(q.merge) - 1)
	q.mergeUp(len(q.merge) - 1)
}

func (q *shardQueue) mergeRemoveRoot() {
	s := q.merge[0].shard
	q.pos[s] = -1
	last := len(q.merge) - 1
	q.merge[0] = q.merge[last]
	q.merge = q.merge[:last]
	if last > 0 {
		q.pos[q.merge[0].shard] = 0
		q.mergeDown(0)
	}
}

// push inserts ev into the shard selected by key. at must be strictly after
// the kernel's current instant (the kernel routes at==now to the now-queue).
func (q *shardQueue) push(key int, ev farEntry[slot]) {
	si := key & q.mask
	s := &q.shards[si]
	q.size++

	// A live bucket already holds this time: append to the run.
	slot := &s.slots[int(uint64(ev.at)&(timeSlots-1))]
	if slot.at == ev.at && slot.idx >= 0 {
		s.buckets[slot.idx].events = append(s.buckets[slot.idx].events, bucketEvent{seq: ev.seq, do: ev.v.do, arg: ev.v.arg})
		return
	}
	if idx, ok := s.byTime[ev.at]; ok {
		s.buckets[idx].events = append(s.buckets[idx].events, bucketEvent{seq: ev.seq, do: ev.v.do, arg: ev.v.arg})
		slot.at, slot.idx = ev.at, idx
		return
	}
	idx := s.alloc(ev.at)
	s.buckets[idx].events = append(s.buckets[idx].events, bucketEvent{seq: ev.seq, do: ev.v.do, arg: ev.v.arg})
	s.byTime[ev.at] = idx
	slot.at, slot.idx = ev.at, idx
	wasEmpty := len(s.heap) == 0
	newMin := s.pushHeap(bref{at: ev.at, idx: idx})
	switch {
	case wasEmpty:
		q.mergeInsert(int32(si), ev.at, ev.seq)
	case newMin:
		p := int(q.pos[si])
		q.merge[p].at, q.merge[p].seq = ev.at, ev.seq
		q.mergeUp(p)
	}
}

// peek returns the earliest shard-held (at, seq) without removing it.
func (q *shardQueue) peek() (Time, uint64, bool) {
	if len(q.merge) == 0 {
		return 0, 0, false
	}
	return q.merge[0].at, q.merge[0].seq, true
}

// pop removes and returns the earliest shard-held event. The caller must
// ensure the merge heap is non-empty.
func (q *shardQueue) pop() farEntry[slot] {
	si := q.merge[0].shard
	s := &q.shards[si]
	idx := s.heap[0].idx
	b := &s.buckets[idx]
	be := b.events[b.head]
	b.events[b.head] = bucketEvent{} // release the callback references
	b.head++
	q.size--

	ev := farEntry[slot]{b.at, be.seq, slot{be.do, be.arg}}
	if b.head < len(b.events) {
		// The run continues: only the head seq changed, and it grew, so the
		// shard can only move deeper in the merge heap.
		q.merge[0].seq = b.events[b.head].seq
		q.mergeDown(0)
		return ev
	}
	// Bucket drained: retire it and advance the shard to its next time.
	delete(s.byTime, b.at)
	if slot := &s.slots[int(uint64(b.at)&(timeSlots-1))]; slot.at == b.at {
		slot.idx = -1
	}
	s.free = append(s.free, idx)
	s.popHeap()
	if len(s.heap) == 0 {
		q.mergeRemoveRoot()
	} else {
		q.merge[0].at, q.merge[0].seq = s.headKey()
		q.mergeDown(0)
	}
	return ev
}

// pending counts all queued events, including the current-instant run.
func (q *shardQueue) pending() int {
	return q.size + (len(q.nowQ) - q.nowHead)
}

// pushNow appends an event scheduled for the kernel's current instant.
func (q *shardQueue) pushNow(do func(any), arg any) {
	q.nowQ = append(q.nowQ, bucketEvent{do: do, arg: arg})
}

// popNow removes the front of the now-queue; the caller checks emptiness.
func (q *shardQueue) popNow() (func(any), any) {
	be := q.nowQ[q.nowHead]
	q.nowQ[q.nowHead] = bucketEvent{}
	q.nowHead++
	if q.nowHead == len(q.nowQ) {
		q.nowQ = q.nowQ[:0]
		q.nowHead = 0
	}
	return be.do, be.arg
}

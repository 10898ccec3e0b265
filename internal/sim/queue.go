package sim

// Queue is the one event queue of every substrate: a timing wheel of
// payloads T with slots 1<<shift time units wide (one tick in the kernel,
// rt.SlotShift wall nanoseconds live). It holds one FIFO run per slot for
// the wheelSpan slots from the cursor on, in chunks from one free list, and
// a 4-ary (at, seq) far heap for later entries (see advance). Entries leave
// slot by slot and, within a slot, in push order — at one unit per slot the
// (at, seq) total order; pushes on one key with non-decreasing due times
// always keep their order. Only Pop moves the cursor, to the slot it pops
// from; a push due before the cursor's slot joins it. A run entry is T alone
// (24 B in the kernel), so a wider queue's payload carries its due time
// (Due) and its caller pops the front only once that has passed: nothing
// leaves early, and a due entry waits at most one slot behind a front not
// yet due. The zero Queue is empty and one unit wide.
type Queue[T any] struct {
	// Every entry of a slot s in [cur, cur+wheelSpan) is in
	// wheel[s%wheelSpan], and near counts them; later ones are in far.
	wheel [wheelSpan]run[T]
	near  int
	far   []farEntry[T]
	seq   uint64
	cur   Time // the cursor's slot
	shift uint8
	free  *chunk[T] // drained chunks, linked by next
	grown int       // chunks allocated
}

// Due is a payload with its own due time, for a queue wider than one unit.
type Due[T any] struct {
	At Time
	V  T
}

// wheelSpan is the number of slots the wheel covers, a power of two. Link,
// travel and workload delays are a few dozen ticks at most; in a sweep of
// 64/256/1024 on the sim workloads no span beat 256 beyond run-to-run
// spread, and 64 trailed on sim-chase and sim-custody (DESIGN §7).
const wheelSpan = 256

// chunkLen is the number of entries in one run chunk. A slot holding one
// entry still takes a whole chunk, as a live relay's sparse slots do: 64
// held less memory than 128, 32 no less (DESIGN §7).
const chunkLen = 64

// slabMax caps the chunks one allocation adds (DESIGN §7, chunk size).
const slabMax = 16

// farEntry is an entry in the far heap, with its due time and push order.
type farEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// before is the far heap's order, total since seq is unique.
func (e *farEntry[T]) before(o *farEntry[T]) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// chunk is a fixed block of a run, linked to the run's next block or, on
// the free list, to the next free chunk.
type chunk[T any] struct {
	ev   [chunkLen]T
	next *chunk[T]
}

// run is one slot's FIFO: chunks from head to tail, read at head.ev[r] and
// written at tail.ev[w]. An empty run holds no chunk.
type run[T any] struct {
	head, tail *chunk[T]
	r, w       int
}

// Init empties q and makes its slots 1<<shift units wide.
func (q *Queue[T]) Init(shift uint) { *q = Queue[T]{shift: uint8(shift)} }

// Len reports how many entries are queued.
func (q *Queue[T]) Len() int { return q.near + len(q.far) }

// Push queues v due at at, behind everything already in its slot.
func (q *Queue[T]) Push(at Time, v T) {
	if s := max(at>>q.shift, q.cur); s-q.cur < wheelSpan {
		q.pushNear(s, v)
		return
	}
	q.seq++
	q.farPush(farEntry[T]{at, q.seq, v})
}

// Front returns the entry Pop would remove, or nil if q is empty.
func (q *Queue[T]) Front() *T {
	if s, ok := q.next(); q.near > 0 {
		r := &q.wheel[s&(wheelSpan-1)]
		return &r.head.ev[r.r]
	} else if ok {
		return &q.far[0].v
	}
	return nil
}

// Pop removes and returns the front entry, which must exist, moving the
// cursor to its slot.
func (q *Queue[T]) Pop() T {
	s, _ := q.next()
	q.advance(s)
	return q.popNear(s)
}

// Range calls f on every queued entry, in no particular order.
func (q *Queue[T]) Range(f func(*T)) {
	for i := range q.wheel {
		r := &q.wheel[i]
		for c, j := r.head, r.r; c != nil; c, j = c.next, 0 {
			for ; j < chunkLen && (c != r.tail || j < r.w); j++ {
				f(&c.ev[j])
			}
		}
	}
	for i := range q.far {
		f(&q.far[i].v)
	}
}

// next returns the front entry's slot — the earliest non-empty one in the
// wheel, else the far minimum's — or false if q is empty.
func (q *Queue[T]) next() (Time, bool) {
	if q.near > 0 {
		s := q.cur
		for q.wheel[s&(wheelSpan-1)].head == nil {
			s++
		}
		return s, true
	}
	if len(q.far) > 0 {
		return q.far[0].at >> q.shift, true
	}
	return 0, false
}

// farPush inserts e into the far heap, sifting up with a hole instead of
// pairwise swaps.
func (q *Queue[T]) farPush(e farEntry[T]) {
	h := append(q.far, e)
	i := len(h) - 1
	for ; i > 0 && e.before(&h[(i-1)>>2]); i = (i - 1) >> 2 {
		h[i] = h[(i-1)>>2]
	}
	h[i] = e
	q.far = h
}

// farPop removes and returns the far heap's minimum, which must exist:
// last sifts down from the root, at each level past the smallest of up to
// four children.
func (q *Queue[T]) farPop() farEntry[T] {
	h, n := q.far, len(q.far)-1
	top, last := h[0], h[n]
	h[n] = farEntry[T]{} // release the payload's references
	h = h[:n]
	i := 0
	for c := 1; c < n; c = i<<2 + 1 {
		best := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&last) {
			break
		}
		h[i], i = h[best], best
	}
	if n > 0 {
		h[i] = last
	}
	q.far = h
	return top
}

// pushNear appends v to the run of slot s, in [cur, cur+wheelSpan).
func (q *Queue[T]) pushNear(s Time, v T) {
	r := &q.wheel[s&(wheelSpan-1)]
	if r.tail == nil || r.w == chunkLen {
		if q.free == nil { // a slab of a quarter of q's chunks, up to slabMax
			slab := make([]chunk[T], min(max(q.grown/4, 1), slabMax))
			q.grown += len(slab)
			for i := range slab {
				slab[i].next, q.free = q.free, &slab[i]
			}
		}
		c := q.free
		q.free, c.next = c.next, nil
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail, r.w = c, 0
	}
	r.tail.ev[r.w] = v
	r.w++
	q.near++
}

// popNear removes the front of slot s's run, which must be non-empty,
// returning each chunk it finishes to the free list.
func (q *Queue[T]) popNear(s Time) T {
	r := &q.wheel[s&(wheelSpan-1)]
	c := r.head
	v := c.ev[r.r]
	var zero T
	c.ev[r.r] = zero // release the payload's references
	r.r++
	q.near--
	switch {
	case c == r.tail && r.r == r.w:
		*r = run[T]{}
	case r.r == chunkLen:
		r.head, r.r = c.next, 0
	default:
		return v
	}
	c.next, q.free = q.free, c
	return v
}

// advance moves the cursor forward to slot s, which must not pass a queued
// entry, and slides the window with it: every far entry whose slot is now
// inside joins its run — before the window can admit a direct push there.
//
// That is the whole ordering argument. A run holds one slot S. An entry for
// S went to the far heap iff S was beyond the window when it was pushed, so
// every far entry for S was pushed before every direct push for S; the far
// heap yields them in (at, seq) order, direct pushes append in push order,
// and runs are visited in slot order.
func (q *Queue[T]) advance(s Time) {
	q.cur = s
	for len(q.far) > 0 && q.far[0].at>>q.shift-s < wheelSpan {
		e := q.farPop()
		q.pushNear(e.at>>q.shift, e.v)
	}
}

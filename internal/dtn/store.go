package dtn

import (
	"fmt"

	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// Store is one station's bounded replica store. It is a plain in-memory
// structure accessed on the engine's execution context; the Manager owns
// one per MSS and serialises access.
//
// Admission policy: an arrival over the destination's per-MH quota is
// refused outright (the quota protects other hosts' space from one busy
// destination); an arrival at a full store evicts the least-recently-
// useful resident to make room (usefulness is refreshed when a peer asks
// for the bundle during anti-entropy, so bundles nobody wants age out
// first).
//
// Layout: the residents sit in one slice ordered by bundle ID, so every
// listing is a walk and a lookup is a binary search over inline IDs. IDs
// are allocated monotonically, so fresh custody appends and the oldest
// bundle — the first to expire, drain or be evicted — sits at the front;
// the live window is slots[head:], a front removal only advances head,
// and any other insert or removal shifts whichever side of the window is
// shorter (DESIGN.md §13).
type Store struct {
	cap   int // 0 = unlimited
	quota int // per-MH, 0 = unlimited

	slots []slot
	head  int
	// lruHead/lruTail is the eviction order, least recently useful first.
	lruHead, lruTail *storeEntry
	perMH            map[engine.MHID]int

	// minExpiry is a lower bound on the earliest deadline among the
	// residents that have one (0: none has). Put lowers it, a sweep
	// recomputes it exactly; removals leave it alone, which keeps it a
	// bound. It makes a sweep with nothing due O(1) without assuming
	// that ID order is expiry order — callers may Put any bundles.
	minExpiry sim.Time
	// vec caches the encoded ID set (summary); nil after any change to
	// it. The slice is handed out in messages, so it is never rewritten.
	vec []byte
	// moved counts the slots shifted by inserts, removals and
	// compaction: the cost contract in allocs_test.go reads it.
	moved int
}

// slot is one resident in the ordered index. The ID and destination sit
// inline so lookups and per-host walks touch no other memory.
type slot struct {
	id BundleID
	mh engine.MHID
	e  *storeEntry
}

type storeEntry struct {
	b          *Bundle
	prev, next *storeEntry
}

// NewStore returns an empty store with the given capacity and per-MH
// quota (0 = unlimited for either).
func NewStore(cap, quota int) *Store {
	return &Store{
		cap:   cap,
		quota: quota,
		perMH: make(map[engine.MHID]int),
	}
}

// live is the ordered index: every resident, ascending by ID. Valid until
// the next Put or Remove.
func (s *Store) live() []slot { return s.slots[s.head:] }

// Len reports the number of resident bundles.
func (s *Store) Len() int { return len(s.slots) - s.head }

// find returns the position of id in the ordered index, or the position
// it would be inserted at.
func (s *Store) find(id BundleID) (int, bool) {
	live := s.live()
	n := len(live)
	if n == 0 || id > live[n-1].id {
		return n, false // fresh custody: IDs only grow
	}
	lo, hi := 0, n-1 // live[hi].id >= id
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, live[lo].id == id
}

// Has reports whether the bundle is resident.
func (s *Store) Has(id BundleID) bool {
	_, ok := s.find(id)
	return ok
}

// Get returns the resident replica, or nil.
func (s *Store) Get(id BundleID) *Bundle {
	if i, ok := s.find(id); ok {
		return s.live()[i].e.b
	}
	return nil
}

// Put admits b. It returns the replica evicted to make room (nil when
// none) and whether b was admitted; refusal means the per-MH quota was
// exhausted. Putting an ID that is already resident is a caller bug and
// panics: two entries for one ID would corrupt the eviction order and
// the per-MH counts.
func (s *Store) Put(b *Bundle) (evicted *Bundle, ok bool) {
	i, dup := s.find(b.ID)
	if dup {
		panic(fmt.Sprintf("dtn: Store.Put of bundle %d, which is already resident", b.ID))
	}
	if s.quota > 0 && s.perMH[b.MH] >= s.quota {
		return nil, false
	}
	if s.cap > 0 && s.Len() >= s.cap {
		victim, _ := s.find(s.lruHead.b.ID)
		evicted = s.removeSlot(victim)
		if victim < i {
			i--
		}
	}
	e := &storeEntry{b: b}
	s.insertAt(i, slot{id: b.ID, mh: b.MH, e: e})
	s.pushBack(e)
	s.perMH[b.MH]++
	if b.Expiry != 0 && (s.minExpiry == 0 || b.Expiry < s.minExpiry) {
		s.minExpiry = b.Expiry
	}
	s.vec = nil
	return evicted, true
}

// Remove deletes the replica and returns it, or nil if absent.
func (s *Store) Remove(id BundleID) *Bundle {
	i, ok := s.find(id)
	if !ok {
		return nil
	}
	return s.removeSlot(i)
}

// Touch marks the replica recently useful, moving it to the safe end of
// the eviction order.
func (s *Store) Touch(id BundleID) {
	i, ok := s.find(id)
	if !ok {
		return
	}
	e := s.live()[i].e
	s.unlink(e)
	s.pushBack(e)
}

// IDs returns the resident bundle IDs in ascending order.
func (s *Store) IDs() []BundleID {
	live := s.live()
	ids := make([]BundleID, len(live))
	for i := range live {
		ids[i] = live[i].id
	}
	return ids
}

// ForMH returns the resident bundles destined for mh in ascending ID
// order (custody-acceptance order, hence per-pair send order).
func (s *Store) ForMH(mh engine.MHID) []*Bundle {
	if n := s.perMH[mh]; n > 0 {
		return s.appendForMH(make([]*Bundle, 0, n), mh)
	}
	return nil
}

// appendForMH is ForMH into the caller's buffer. It touches no resident
// when the host has none here, and stops at the host's last one.
func (s *Store) appendForMH(dst []*Bundle, mh engine.MHID) []*Bundle {
	left := s.perMH[mh]
	if left == 0 {
		return dst
	}
	for _, sl := range s.live() {
		if sl.mh == mh {
			dst = append(dst, sl.e.b)
			if left--; left == 0 {
				break
			}
		}
	}
	return dst
}

// All returns every resident bundle in ascending ID order.
func (s *Store) All() []*Bundle {
	return s.appendAll(make([]*Bundle, 0, s.Len()))
}

func (s *Store) appendAll(dst []*Bundle) []*Bundle {
	for _, sl := range s.live() {
		dst = append(dst, sl.e.b)
	}
	return dst
}

// summary returns the encoded summary vector of the resident IDs
// (EncodeSummary of IDs). The result is cached until the ID set changes
// and shared between callers: it must not be modified.
func (s *Store) summary() []byte {
	if s.vec == nil {
		live := s.live()
		buf := beginSummary(make([]byte, 0, 2+len(live)), len(live))
		prev := BundleID(0)
		for i := range live {
			buf = appendSummaryID(buf, prev, live[i].id)
			prev = live[i].id
		}
		s.vec = buf
	}
	return s.vec
}

// expiryDue reports whether any resident's deadline may have passed at
// now: the O(1) gate in front of every sweep.
func (s *Store) expiryDue(now sim.Time) bool {
	return s.minExpiry != 0 && now >= s.minExpiry
}

// appendExpired appends every resident whose TTL has passed at now, in
// ascending ID order, without removing it: the caller removes each one
// as it accounts for it. The walk leaves minExpiry exact for the
// residents that stay.
func (s *Store) appendExpired(dst []*Bundle, now sim.Time) []*Bundle {
	if !s.expiryDue(now) {
		return dst
	}
	var next sim.Time
	for _, sl := range s.live() {
		b := sl.e.b
		switch {
		case b.expired(now):
			dst = append(dst, b)
		case b.Expiry != 0 && (next == 0 || b.Expiry < next):
			next = b.Expiry
		}
	}
	s.minExpiry = next
	return dst
}

// removeSlot takes the resident at position i of the ordered index out of
// the index, the eviction order and the per-MH count.
func (s *Store) removeSlot(i int) *Bundle {
	e := s.live()[i].e
	s.unlink(e)
	s.removeAt(i)
	if n := s.perMH[e.b.MH] - 1; n > 0 {
		s.perMH[e.b.MH] = n
	} else {
		delete(s.perMH, e.b.MH)
	}
	s.vec = nil
	return e.b
}

// insertAt places sl at position i of the ordered index.
func (s *Store) insertAt(i int, sl slot) {
	n := s.Len()
	switch {
	case i == n:
		if len(s.slots) == cap(s.slots) && s.head >= n && s.head > 0 {
			// Out of room with at least as much dead space below head
			// as there are residents: slide down instead of growing.
			// Each slide is paid for by the front removals before it.
			old := len(s.slots)
			copy(s.slots, s.slots[s.head:])
			clear(s.slots[n:old])
			s.slots, s.head = s.slots[:n], 0
			s.moved += n
		}
		s.slots = append(s.slots, sl)
	case s.head > 0 && i < n-i:
		s.head--
		live := s.live()
		copy(live[:i], live[1:i+1])
		live[i] = sl
		s.moved += i
	default:
		s.slots = append(s.slots, slot{})
		live := s.live()
		copy(live[i+1:], live[i:])
		live[i] = sl
		s.moved += n - i
	}
}

// removeAt deletes position i of the ordered index, shifting the shorter
// side; the front goes by advancing head.
func (s *Store) removeAt(i int) {
	live := s.live()
	if last := len(live) - 1; i < last-i {
		copy(live[1:i+1], live[:i])
		live[0] = slot{}
		s.head++
		s.moved += i
	} else {
		copy(live[i:], live[i+1:])
		live[last] = slot{}
		s.slots = s.slots[:len(s.slots)-1]
		s.moved += last - i
	}
	if s.head == len(s.slots) {
		s.slots, s.head = s.slots[:0], 0
	}
}

func (s *Store) pushBack(e *storeEntry) {
	e.prev, e.next = s.lruTail, nil
	if s.lruTail != nil {
		s.lruTail.next = e
	} else {
		s.lruHead = e
	}
	s.lruTail = e
}

func (s *Store) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

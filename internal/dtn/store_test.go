package dtn

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

func mkBundle(id BundleID, mh engine.MHID) *Bundle {
	return &Bundle{ID: id, MH: mh, Msg: "m", Tokens: 1}
}

func TestStoreQuotaRefuses(t *testing.T) {
	s := NewStore(0, 2)
	for i := BundleID(1); i <= 2; i++ {
		if _, ok := s.Put(mkBundle(i, 0)); !ok {
			t.Fatalf("Put %d refused under quota", i)
		}
	}
	if _, ok := s.Put(mkBundle(3, 0)); ok {
		t.Fatal("Put over per-MH quota accepted")
	}
	// A different destination still has room.
	if _, ok := s.Put(mkBundle(4, 1)); !ok {
		t.Fatal("Put for another MH refused")
	}
	// Removing one frees the quota slot.
	if s.Remove(1) == nil {
		t.Fatal("Remove(1) returned nil")
	}
	if _, ok := s.Put(mkBundle(5, 0)); !ok {
		t.Fatal("Put after Remove refused")
	}
}

func TestStoreCapEvictsLRU(t *testing.T) {
	s := NewStore(2, 0)
	s.Put(mkBundle(1, 0))
	s.Put(mkBundle(2, 0))
	// Touching 1 makes 2 the eviction candidate.
	s.Touch(1)
	ev, ok := s.Put(mkBundle(3, 0))
	if !ok || ev == nil || ev.ID != 2 {
		t.Fatalf("Put at cap: evicted %v ok=%v, want bundle 2", ev, ok)
	}
	if got := s.IDs(); !reflect.DeepEqual(got, []BundleID{1, 3}) {
		t.Fatalf("IDs = %v, want [1 3]", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestStoreForMHSortedByID(t *testing.T) {
	s := NewStore(0, 0)
	s.Put(mkBundle(5, 0))
	s.Put(mkBundle(2, 1))
	s.Put(mkBundle(9, 0))
	s.Put(mkBundle(1, 0))
	got := s.ForMH(0)
	ids := make([]BundleID, len(got))
	for i, b := range got {
		ids[i] = b.ID
	}
	if !reflect.DeepEqual(ids, []BundleID{1, 5, 9}) {
		t.Fatalf("ForMH ids = %v, want [1 5 9]", ids)
	}
}

// TestStorePutResidentIDPanics pins the contract at its source: a second
// entry for a resident ID would stay linked in the eviction order and be
// counted twice per MH, and would only surface later, far from the
// caller, as an unsorted summary vector.
func TestStorePutResidentIDPanics(t *testing.T) {
	s := NewStore(0, 0)
	s.Put(mkBundle(7, 0))
	defer func() {
		msg := fmt.Sprint(recover())
		if want := "dtn: Store.Put of bundle 7, which is already resident"; msg != want {
			t.Fatalf("Put of a resident ID: recovered %q, want panic %q", msg, want)
		}
		if s.Len() != 1 || len(s.ForMH(0)) != 1 {
			t.Fatalf("store changed by the refused Put: Len=%d ForMH=%d", s.Len(), len(s.ForMH(0)))
		}
	}()
	s.Put(mkBundle(7, 0))
}

// ---- reference model ----

// modelStore is the store this package started with, kept as the oracle
// FuzzStoreModel compares the ordered-index store against: residents in
// an unordered map, every listing a copy sorted on the way out.
type modelStore struct {
	cap, quota int
	byID       map[BundleID]*modelEntry
	head, tail *modelEntry // LRU list, least recently useful first
	perMH      map[engine.MHID]int
}

type modelEntry struct {
	b          *Bundle
	prev, next *modelEntry
}

func newModelStore(cap, quota int) *modelStore {
	return &modelStore{
		cap:   cap,
		quota: quota,
		byID:  make(map[BundleID]*modelEntry),
		perMH: make(map[engine.MHID]int),
	}
}

func (s *modelStore) Len() int { return len(s.byID) }

func (s *modelStore) Has(id BundleID) bool {
	_, ok := s.byID[id]
	return ok
}

func (s *modelStore) Get(id BundleID) *Bundle {
	if e, ok := s.byID[id]; ok {
		return e.b
	}
	return nil
}

func (s *modelStore) Put(b *Bundle) (evicted *Bundle, ok bool) {
	if s.quota > 0 && s.perMH[b.MH] >= s.quota {
		return nil, false
	}
	if s.cap > 0 && len(s.byID) >= s.cap {
		evicted = s.removeEntry(s.head)
	}
	e := &modelEntry{b: b}
	s.byID[b.ID] = e
	s.pushBack(e)
	s.perMH[b.MH]++
	return evicted, true
}

func (s *modelStore) Remove(id BundleID) *Bundle {
	e, ok := s.byID[id]
	if !ok {
		return nil
	}
	return s.removeEntry(e)
}

func (s *modelStore) Touch(id BundleID) {
	e, ok := s.byID[id]
	if !ok {
		return
	}
	s.unlink(e)
	s.pushBack(e)
}

func (s *modelStore) IDs() []BundleID {
	ids := make([]BundleID, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s *modelStore) ForMH(mh engine.MHID) []*Bundle {
	var out []*Bundle
	for _, e := range s.byID {
		if e.b.MH == mh {
			out = append(out, e.b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *modelStore) All() []*Bundle {
	out := make([]*Bundle, 0, len(s.byID))
	for _, e := range s.byID {
		out = append(out, e.b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sweep is the manager's old sweepExpired loop: every expired resident,
// in ascending ID order, removed.
func (s *modelStore) sweep(now sim.Time) []*Bundle {
	var out []*Bundle
	for _, b := range s.All() {
		if b.expired(now) {
			s.Remove(b.ID)
			out = append(out, b)
		}
	}
	return out
}

func (s *modelStore) removeEntry(e *modelEntry) *Bundle {
	s.unlink(e)
	delete(s.byID, e.b.ID)
	if n := s.perMH[e.b.MH] - 1; n > 0 {
		s.perMH[e.b.MH] = n
	} else {
		delete(s.perMH, e.b.MH)
	}
	return e.b
}

func (s *modelStore) pushBack(e *modelEntry) {
	e.prev, e.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
}

func (s *modelStore) unlink(e *modelEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// ---- differential fuzz ----

// Store ops of FuzzStoreModel. Each op is three bytes: the kind, then two
// arguments.
const (
	fzPut      = iota // Put id 1+a%64 for host b%4, deadline from b's high bits (0 = none)
	fzPutFresh        // Put the next never-used ID (fresh custody appends), same host and deadline rule
	fzRemove          // Remove id 1+a%64
	fzFront           // Remove the lowest resident ID
	fzTouch           // Touch id 1+a%64
	fzSweep           // expire everything due at now = a*4 + b%4
	fzKinds
)

const (
	fzFreshBase = 1000 // fresh IDs start above the arbitrary-order range
	fzMaxOps    = 400  // per input: both stores are compared in full after every op
)

func fzOps(ops ...byte) []byte { return ops }

// FuzzStoreModel drives the ordered-index store and the map-and-sort
// model with the same byte-coded sequence of operations and demands, after
// every step, the same answers from both: what a Put evicted or refused,
// what a Remove or a sweep returned, and every listing — plus the store's
// own invariants (index ascending, expiry watermark a lower bound, cached
// summary equal to a fresh encoding).
func FuzzStoreModel(f *testing.F) {
	// Front-removal run: fill ascending, drain from the front, refill.
	var run []byte
	for i := 0; i < 12; i++ {
		run = append(run, fzPutFresh, 0, byte(i))
	}
	for i := 0; i < 9; i++ {
		run = append(run, fzFront, 0, 0)
	}
	for i := 0; i < 6; i++ {
		run = append(run, fzPutFresh, 0, byte(i))
	}
	f.Add(byte(0), byte(0), run)
	// Gossip-style: fresh custody at the tail interleaved with replicas
	// landing below it, then removals from the middle.
	f.Add(byte(0), byte(0), fzOps(
		fzPutFresh, 0, 0, fzPut, 40, 1, fzPutFresh, 0, 2, fzPut, 10, 3, fzPut, 50, 0,
		fzPut, 30, 1, fzFront, 0, 0, fzPut, 5, 2, fzPut, 45, 3, fzRemove, 30, 0,
		fzPut, 20, 0, fzRemove, 45, 0, fzPut, 60, 1, fzFront, 0, 0, fzPut, 1, 1))
	// Evict, then reinsert the evicted ID (cap 3), with a Touch reordering
	// the victims.
	f.Add(byte(3), byte(0), fzOps(
		fzPut, 1, 0, fzPut, 2, 0, fzPut, 3, 0, fzTouch, 1, 0, fzPut, 4, 0,
		fzPut, 2, 0, fzPut, 3, 0, fzPut, 1, 0, fzPut, 4, 0))
	// Quota refusals and deadlines out of ID order, swept at several times.
	f.Add(byte(0), byte(2), fzOps(
		fzPut, 9, 0xf0, fzPut, 3, 0x10, fzPut, 5, 0x10, fzPut, 7, 0x50, fzPut, 8, 0x24,
		fzSweep, 0, 3, fzSweep, 2, 0, fzPut, 2, 0x0c, fzSweep, 8, 0, fzSweep, 60, 0))
	// A Put of a resident ID.
	f.Add(byte(0), byte(0), fzOps(fzPut, 6, 0, fzPut, 6, 1))

	f.Fuzz(func(t *testing.T, capByte, quotaByte byte, ops []byte) {
		cap, quota := int(capByte%17), int(quotaByte%5)
		got, want := NewStore(cap, quota), newModelStore(cap, quota)
		fresh := BundleID(fzFreshBase)
		put := func(id BundleID, arg byte) {
			b := &Bundle{ID: id, MH: engine.MHID(arg % 4), Expiry: sim.Time(arg>>2) * 4}
			if want.Has(id) {
				if !panics(func() { got.Put(b) }) {
					t.Fatalf("Put of resident id %d did not panic", id)
				}
				return
			}
			gotEv, gotOK := got.Put(b)
			wantEv, wantOK := want.Put(b)
			if gotEv != wantEv || gotOK != wantOK {
				t.Fatalf("Put(%d): evicted %v ok=%v, model evicted %v ok=%v", id, gotEv, gotOK, wantEv, wantOK)
			}
		}
		if len(ops) > 3*fzMaxOps {
			ops = ops[:3*fzMaxOps]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b := ops[1], ops[2]
			id := BundleID(1 + a%64)
			switch ops[0] % fzKinds {
			case fzPut:
				put(id, b)
			case fzPutFresh:
				put(fresh, b)
				fresh++
			case fzFront:
				if ids := want.IDs(); len(ids) > 0 {
					id = ids[0]
				}
				fallthrough
			case fzRemove:
				if g, w := got.Remove(id), want.Remove(id); g != w {
					t.Fatalf("Remove(%d) = %v, model %v", id, g, w)
				}
			case fzTouch:
				got.Touch(id)
				want.Touch(id)
			case fzSweep:
				now := sim.Time(a)*4 + sim.Time(b%4)
				due := got.appendExpired(nil, now)
				for _, x := range due {
					got.Remove(x.ID)
				}
				if w := want.sweep(now); !sameBundles(due, w) {
					t.Fatalf("sweep at %d = %v, model %v", now, bundleIDs(due), bundleIDs(w))
				}
			}
			compareStores(t, got, want)
		}
	})
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func bundleIDs(bs []*Bundle) []BundleID {
	ids := make([]BundleID, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	return ids
}

// sameBundles compares by identity: both stores were handed the same
// *Bundle values.
func sameBundles(a, b []*Bundle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func compareStores(t *testing.T, got *Store, want *modelStore) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, model %d", got.Len(), want.Len())
	}
	ids := want.IDs()
	if g := got.IDs(); !reflect.DeepEqual(g, ids) {
		t.Fatalf("IDs = %v, model %v", g, ids)
	}
	if g, w := got.All(), want.All(); !sameBundles(g, w) {
		t.Fatalf("All = %v, model %v", bundleIDs(g), bundleIDs(w))
	}
	for mh := engine.MHID(0); mh < 5; mh++ {
		if g, w := got.ForMH(mh), want.ForMH(mh); !sameBundles(g, w) {
			t.Fatalf("ForMH(%d) = %v, model %v", mh, bundleIDs(g), bundleIDs(w))
		}
	}
	for id := BundleID(0); id <= 65; id++ {
		if got.Has(id) != want.Has(id) || got.Get(id) != want.Get(id) {
			t.Fatalf("Has/Get(%d) = %v/%v, model %v/%v", id, got.Has(id), got.Get(id), want.Has(id), want.Get(id))
		}
	}
	for _, id := range ids {
		if !got.Has(id) || got.Get(id) != want.Get(id) {
			t.Fatalf("Has/Get(%d) = %v/%v, model true/%v", id, got.Has(id), got.Get(id), want.Get(id))
		}
	}
	if g, w := got.summary(), EncodeSummary(ids); !bytes.Equal(g, w) {
		t.Fatalf("cached summary % x, fresh encoding % x", g, w)
	}
	// The eviction order is only observable one Put at a time; compare
	// the whole list here so a divergence shows at the step that made it.
	ge, we := got.lruHead, want.head
	for ; ge != nil && we != nil; ge, we = ge.next, we.next {
		if ge.b != we.b {
			t.Fatalf("eviction order diverges at bundle %d, model %d", ge.b.ID, we.b.ID)
		}
	}
	if ge != nil || we != nil {
		t.Fatalf("eviction lists differ in length")
	}
	// The store's own invariants.
	for i, sl := range got.live() {
		if i > 0 && got.live()[i-1].id >= sl.id {
			t.Fatalf("index not strictly ascending at %d: %d then %d", i, got.live()[i-1].id, sl.id)
		}
		if sl.e.b.ID != sl.id || sl.e.b.MH != sl.mh {
			t.Fatalf("slot %d (id %d mh %d) does not describe its bundle (id %d mh %d)", i, sl.id, sl.mh, sl.e.b.ID, sl.e.b.MH)
		}
		if x := sl.e.b.Expiry; x != 0 && (got.minExpiry == 0 || got.minExpiry > x) {
			t.Fatalf("expiry watermark %d is not a lower bound: bundle %d expires at %d", got.minExpiry, sl.id, x)
		}
	}
	for i, sl := range got.slots[:cap(got.slots)] {
		if (i < got.head || i >= len(got.slots)) && sl != (slot{}) {
			t.Fatalf("dead slot %d (window %d:%d) still holds bundle %d", i, got.head, len(got.slots), sl.id)
		}
	}
}

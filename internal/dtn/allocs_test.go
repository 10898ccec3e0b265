package dtn

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
)

// These tests are the cost contract of the ordered-index store: custody
// work is proportional to what changed, not to what is held. A gossip
// round over stores where nothing expired and nothing is missing walks
// no residents, encodes nothing and allocates nothing.

// sentLog stands in for the manager's engine context and records what it
// sends over the wired network instead of sending it.
type sentLog struct {
	engine.Context
	sent []engine.Message
}

func (c *sentLog) SendFixed(from, to engine.MSSID, msg engine.Message, cat cost.Category) {
	c.sent = append(c.sent, msg)
}

// parkedManager returns a manager holding n parked bundles (TTL far
// ahead) for a disconnected host at station 0, its sends diverted into
// the returned log.
func parkedManager(t *testing.T, n int) (*Manager, *sentLog) {
	t.Helper()
	sys, _, ctx, mgr := fixedSys(t, core.DefaultConfig(3, 2), Config{Strategy: Epidemic{Every: 50}, TTL: 1 << 40})
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	for i := 0; i < n; i++ {
		ctx.SendToMH(0, 0, i, cost.CatAlgorithm)
	}
	if err := sys.RunUntil(40); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := mgr.stores[0].Len(); got != n {
		t.Fatalf("station 0 holds %d bundles, want %d parked", got, n)
	}
	log := &sentLog{Context: mgr.ctx}
	mgr.ctx = log
	return mgr, log
}

func TestSweepWithNothingDueIsConstant(t *testing.T) {
	mgr, _ := parkedManager(t, 64)
	s := mgr.stores[0]
	if s.expiryDue(mgr.ctx.Now()) {
		t.Fatalf("expiryDue(%d) with every deadline at 2^40: the watermark %d is not doing its job", mgr.ctx.Now(), s.minExpiry)
	}
	// expiryDue false is the whole gate: appendExpired returns before it
	// looks at a resident.
	if allocs := testing.AllocsPerRun(100, func() { mgr.sweepExpired(0) }); allocs != 0 {
		t.Errorf("sweep with nothing due allocated %.1f objects, want 0", allocs)
	}
	if s.Len() != 64 || mgr.Stats().Expired != 0 {
		t.Errorf("sweep with nothing due changed the store: Len=%d expired=%d", s.Len(), mgr.Stats().Expired)
	}
}

func TestSendSummarySharesCachedVector(t *testing.T) {
	mgr, log := parkedManager(t, 64)
	mgr.sendSummary(0, 1)
	mgr.sendSummary(0, 2)
	if len(log.sent) != 2 {
		t.Fatalf("sent %d messages, want 2 summaries", len(log.sent))
	}
	a, b := log.sent[0].(summaryMsg).data, log.sent[1].(summaryMsg).data
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Errorf("two summaries of an unchanged store do not share a backing array")
	}
	// What is left is the message itself, boxed into engine.Message.
	if allocs := testing.AllocsPerRun(100, func() {
		log.sent = log.sent[:0]
		mgr.sendSummary(0, 1)
	}); allocs > 1 {
		t.Errorf("sendSummary of an unchanged store allocated %.1f objects, want 1 (the message)", allocs)
	}
	// A change to the ID set must not be written into the vector already
	// handed out: the next summary is a fresh array.
	want := append([]byte(nil), a...)
	mgr.remove(0, mgr.stores[0].IDs()[0])
	mgr.sendSummary(0, 1)
	c := log.sent[len(log.sent)-1].(summaryMsg).data
	if &c[0] == &a[0] || string(a) != string(want) {
		t.Errorf("summary after a removal reused or rewrote the vector in flight")
	}
	if ids, err := DecodeSummary(c); err != nil || len(ids) != 63 {
		t.Errorf("summary after a removal decodes to %d ids, %v; want 63", len(ids), err)
	}
}

func TestHandleSummaryNothingMissingIsFree(t *testing.T) {
	mgr, log := parkedManager(t, 64)
	vec := mgr.stores[0].summary()
	if allocs := testing.AllocsPerRun(100, func() { mgr.handleSummary(0, 1, vec) }); allocs != 0 {
		t.Errorf("handleSummary with nothing missing allocated %.1f objects, want 0", allocs)
	}
	if len(log.sent) != 0 {
		t.Errorf("handleSummary with nothing missing sent %d messages, want none", len(log.sent))
	}
	// The same vector at a station holding nothing is all missing.
	mgr.handleSummary(1, 0, vec)
	if len(log.sent) != 1 {
		t.Fatalf("handleSummary at an empty station sent %d messages, want 1 want-list", len(log.sent))
	}
	if ids, err := DecodeSummary(log.sent[0].(wantMsg).data); err != nil || len(ids) != 64 {
		t.Errorf("want-list decodes to %d ids, %v; want all 64", len(ids), err)
	}
}

func TestForMHWithoutResidentsIsFree(t *testing.T) {
	s := NewStore(0, 0)
	for i := 0; i < 64; i++ {
		s.Put(mkBundle(BundleID(i+1), 0))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got := s.ForMH(1); got != nil {
			t.Fatalf("ForMH(1) = %d bundles, want none", len(got))
		}
	}); allocs != 0 {
		t.Errorf("ForMH for a host with no residents allocated %.1f objects, want 0", allocs)
	}
}

// TestStoreFrontRemovalMovesNothing is the layout's contract on the
// pattern custody actually has — IDs arrive ascending and leave oldest
// first: a plain sorted slice would shift its whole tail on every front
// removal (8M slot moves for the fill-and-drain below).
func TestStoreFrontRemovalMovesNothing(t *testing.T) {
	const bundles = 4096
	s := NewStore(bundles, 0)
	for i := 0; i < bundles; i++ {
		s.Put(mkBundle(BundleID(i+1), 0))
	}
	for i := 0; i < bundles; i++ {
		if s.Remove(BundleID(i+1)) == nil {
			t.Fatalf("Remove(%d) = nil", i+1)
		}
	}
	if s.moved != 0 {
		t.Errorf("ascending fill and drain of %d bundles shifted %d slots, want 0", bundles, s.moved)
	}
	// Steady state at capacity: every arrival evicts the oldest. The
	// window slides along the slice and is slid back when it reaches the
	// end; the slides must stay amortised O(1) per operation and the
	// slice must not grow without bound.
	const window, ops = 256, 100 * 256
	s = NewStore(window, 0)
	for i := 0; i < ops; i++ {
		s.Put(mkBundle(BundleID(i+1), 0))
	}
	if s.moved > ops {
		t.Errorf("%d puts through a %d-bundle window shifted %d slots, want at most one per put", ops, window, s.moved)
	}
	if cap(s.slots) > 4*window {
		t.Errorf("a %d-bundle window grew its index to %d slots, want at most %d", window, cap(s.slots), 4*window)
	}
	// A removal in the middle shifts the shorter side only.
	before := s.moved
	s.Remove(s.IDs()[3])
	if got := s.moved - before; got != 3 {
		t.Errorf("removing the 4th of %d residents shifted %d slots, want 3", window, got)
	}
}

// TestReplicaCostsOneAllocation pins the replica path's garbage: the one
// object a replica costs is the Bundle replicate makes for its message.
// The message boxes without allocating (bundleMsg is one pointer), the
// arrival stores the pointer it carries instead of a copy, the store
// reuses a freed arena entry, and the bundle's flight — held open here
// by a second copy on its way elsewhere — takes the new destination in
// place.
func TestReplicaCostsOneAllocation(t *testing.T) {
	mgr, log := parkedManager(t, 64)
	b := mgr.stores[0].All()[10]
	mgr.inflightInc(b, 2)
	cycle := func() {
		log.sent = log.sent[:0]
		mgr.replicate(0, 1, b, 1)
		msg := log.sent[0].(bundleMsg)
		mgr.HandleMSS(mgr.ctx, 1, engine.From{MSS: 0}, msg)
		if got := mgr.stores[1].Get(b.ID); got != msg.b {
			t.Fatalf("station 1 holds %p for bundle %d, want the arriving replica %p", got, b.ID, msg.b)
		}
		mgr.remove(1, b.ID)
	}
	cycle() // warm: the arena entry and the flight's destination slots
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 1 {
		t.Errorf("replicate + arrival + Put allocated %.1f objects per replica, want at most 1 (the Bundle)", allocs)
	}
	if f := mgr.ledger[b.ID]; f == nil || f.total != 1 || mgr.inFlightTotal != 1 {
		t.Fatalf("flight after the cycles: %+v, in flight %d; want the one copy toward station 2", f, mgr.inFlightTotal)
	}
}

// TestFlightLedgerAllocatesNothing pins the in-flight ledger: counting a
// copy onto and off an existing flight reuses its destination slots, a
// settled entry (retired, nothing stored, nothing on the wire) leaves the
// ledger for the spare list, and the next entry opened pops that spare
// instead of allocating.
func TestFlightLedgerAllocatesNothing(t *testing.T) {
	mgr, _ := parkedManager(t, 4)
	a := mgr.stores[0].All()[0]
	mgr.inflightInc(a, 2)
	mgr.inflightInc(a, 1)
	mgr.inflightDec(a.ID, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		mgr.inflightInc(a, 1)
		if !mgr.inflightDec(a.ID, 1) {
			t.Fatal("inflightDec lost the copy toward station 1")
		}
	}); allocs != 0 {
		t.Errorf("inflightInc/inflightDec on an existing flight allocated %.1f objects, want 0", allocs)
	}
	mgr.inflightDec(a.ID, 2)
	if f := mgr.ledger[a.ID]; f.total != 0 || len(f.dests) != 0 || mgr.inFlightTotal != 0 {
		t.Fatalf("drained flight: %d copies toward %d stations, %d in flight; want none", f.total, len(f.dests), mgr.inFlightTotal)
	}
	// Settle a: nothing of it stored or on the wire, then retired.
	held := len(mgr.ledger)
	mgr.remove(0, a.ID)
	mgr.terminal(0, a, false)
	if len(mgr.ledger) != held-1 || mgr.ledger[a.ID] != nil || len(mgr.spareEntries) != 1 {
		t.Fatalf("settled bundle %d: ledger holds %d entries (entry %+v), %d spare; want %d, none and 1",
			a.ID, len(mgr.ledger), mgr.ledger[a.ID], len(mgr.spareEntries), held-1)
	}
	// A late copy of the retired bundle opens an entry from the spare and
	// settles it back when it lands.
	if allocs := testing.AllocsPerRun(100, func() {
		mgr.inflightInc(a, 1)
		if len(mgr.spareEntries) != 0 {
			t.Fatal("opening a ledger entry left the spare unused")
		}
		mgr.inflightDec(a.ID, 1)
	}); allocs != 0 {
		t.Errorf("a ledger entry opened on a bundle with none allocated %.1f objects, want 0 (the spare)", allocs)
	}
	if len(mgr.ledger) != held-1 || len(mgr.spareEntries) != 1 {
		t.Fatalf("after the late copies: ledger holds %d entries, %d spare; want %d and 1", len(mgr.ledger), len(mgr.spareEntries), held-1)
	}
}

// TestSummaryCostsItsIDsNotTheirWidth pins the word format's sparse
// case: a summary lists only the non-zero 64-ID words, so a store whose
// IDs span 2^40 encodes and merges two words, and n IDs spaced 65 apart
// (one per word, the format's worst case) encode to 9 bytes each. The
// merge is one pass over the peer's words and the store's word view, so
// pinning both lengths pins the words it visits; a dense array over the
// ID range, in the summary or in the word view, fails here.
func TestSummaryCostsItsIDsNotTheirWidth(t *testing.T) {
	spaced := make([]BundleID, 1000)
	for i := range spaced {
		spaced[i] = BundleID(1 + 65*i)
	}
	for _, tc := range []struct {
		name     string
		ids      []BundleID
		maxBytes int
	}{
		{"1 and 2^40", []BundleID{1, 1 << 40}, 1 + 9 + 5 + 8},
		{"1000 spaced 65 apart", spaced, 2 + 9*len(spaced)},
	} {
		s := NewStore(0, 0)
		for _, id := range tc.ids {
			s.Put(mkBundle(id, 0))
		}
		n := len(tc.ids)
		if words := s.wordView(); len(words) != n || cap(words) > 2*n {
			t.Errorf("%s: word view holds %d words in an array of %d, want %d in at most %d", tc.name, len(words), cap(words), n, 2*n)
		}
		vec := s.summary()
		if len(vec) > tc.maxBytes {
			t.Errorf("%s: summary of %d IDs is %d bytes, want at most %d", tc.name, n, len(vec), tc.maxBytes)
		}
		r, read := readWords(vec), 0
		for _, ok := r.next(); ok; _, ok = r.next() {
			read++
		}
		if r.err != nil || read != n {
			t.Errorf("%s: summary lists %d words (%v), want %d", tc.name, read, r.err, n)
		}
		// Merged at a station holding the same set: nothing missing,
		// nothing allocated. At an empty one: every ID wanted.
		m, log := bareManager(s, NewStore(0, 0))
		if allocs := testing.AllocsPerRun(20, func() { m.handleSummary(0, 1, vec) }); allocs != 0 || len(log.sent) != 0 {
			t.Errorf("%s: merge against the same set allocated %.1f objects and sent %d messages, want 0 and 0", tc.name, allocs, len(log.sent))
		}
		m.handleSummary(1, 0, vec)
		if len(log.sent) != 1 {
			t.Fatalf("%s: merge at an empty station sent %d messages, want 1 want-list", tc.name, len(log.sent))
		}
		if got, err := DecodeSummary(log.sent[0].(wantMsg).data); err != nil || !sameIDs(got, tc.ids) {
			t.Errorf("%s: want-list decodes to %d IDs (%v), want all %d", tc.name, len(got), err, n)
		}
	}
}

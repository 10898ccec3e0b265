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
	if s.expiryDue(mgr.Now()) {
		t.Fatalf("expiryDue(%d) with every deadline at 2^40: the watermark %d is not doing its job", mgr.Now(), s.minExpiry)
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
	mgr.SendSummary(0, 1)
	mgr.SendSummary(0, 2)
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
		mgr.SendSummary(0, 1)
	}); allocs > 1 {
		t.Errorf("SendSummary of an unchanged store allocated %.1f objects, want 1 (the message)", allocs)
	}
	// A change to the ID set must not be written into the vector already
	// handed out: the next summary is a fresh array.
	want := append([]byte(nil), a...)
	mgr.remove(0, mgr.stores[0].IDs()[0])
	mgr.SendSummary(0, 1)
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

package group

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/obs"
)

// kindCounts tallies the recorded events per kind.
func kindCounts(tr *obs.Tracer) map[obs.EventKind]int64 {
	out := make(map[obs.EventKind]int64)
	for _, ev := range tr.Events() {
		out[ev.Kind]++
	}
	return out
}

// TestAlwaysInformEventsMatchUpdateTally pins the group-strategy events to
// the strategy's own counters (the numbers internal/experiments reports):
// one group-inform event per location-update broadcast, nothing else from
// the group taxonomy.
func TestAlwaysInformEventsMatchUpdateTally(t *testing.T) {
	const (
		m = 5
		n = 10
		g = 6
	)
	tracer := obs.NewTracer(0)
	cfg := core.DefaultConfig(m, n)
	cfg.Obs = tracer
	sys := core.MustNewSystem(cfg)
	ai, err := NewAlwaysInform(sys, core.AllMHs(g), Options{})
	if err != nil {
		t.Fatalf("NewAlwaysInform: %v", err)
	}
	// Three member moves broadcast updates; a non-member move must not.
	for _, mv := range []struct {
		mh  core.MHID
		mss core.MSSID
	}{{0, 2}, {3, 4}, {5, 1}, {core.MHID(g + 1), 3}} {
		if err := sys.Move(mv.mh, mv.mss); err != nil {
			t.Fatalf("Move: %v", err)
		}
	}
	if err := ai.Send(core.MHID(1), "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	counts := kindCounts(tracer)
	if ai.Updates() != 3 {
		t.Fatalf("Updates = %d, want 3 (three member moves)", ai.Updates())
	}
	if counts[obs.EvGroupInform] != ai.Updates() {
		t.Errorf("group-inform events = %d, want Updates() = %d",
			counts[obs.EvGroupInform], ai.Updates())
	}
	if counts[obs.EvGroupViewUpdate] != 0 || counts[obs.EvGroupStaleLookup] != 0 {
		t.Errorf("always-inform emitted view events: view-update=%d stale-lookup=%d",
			counts[obs.EvGroupViewUpdate], counts[obs.EvGroupStaleLookup])
	}
	// The inform operands name the mover and its new cell.
	informs := obs.Filter(tracer.Events(), obs.KindFilter(obs.EvGroupInform))
	if informs[0].A != 0 || informs[0].B != 2 {
		t.Errorf("first inform = (mh%d, mss%d), want (mh0, mss2)", informs[0].A, informs[0].B)
	}
}

// TestLocationViewEventsMatchTallies does the same for the location-view
// strategy: view-update events track Updates(), stale-lookup events track
// Fallbacks(), and both fire in this scenario.
func TestLocationViewEventsMatchTallies(t *testing.T) {
	const (
		m = 5
		n = 6
		g = 3
	)
	tracer := obs.NewTracer(0)
	cfg := core.DefaultConfig(m, n)
	cfg.Obs = tracer
	cfg.Placement = singleCellPlacement(0)
	sys := core.MustNewSystem(cfg)
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Coordinator:   core.MSSID(m - 1),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	// A settled significant move first, then the eager-sender scenario: a
	// member sends right after arriving in an out-of-view cell, before its
	// cell's view copy can arrive — the coordinator fallback.
	if err := sys.Move(core.MHID(1), core.MSSID(1)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.RunUntil(5_000); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := sys.Move(core.MHID(0), core.MSSID(2)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := lv.Send(core.MHID(0), "eager"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	counts := kindCounts(tracer)
	if lv.Updates() == 0 || lv.Fallbacks() == 0 {
		t.Fatalf("scenario too quiet: updates=%d fallbacks=%d", lv.Updates(), lv.Fallbacks())
	}
	if counts[obs.EvGroupViewUpdate] != lv.Updates() {
		t.Errorf("group-view-update events = %d, want Updates() = %d",
			counts[obs.EvGroupViewUpdate], lv.Updates())
	}
	if counts[obs.EvGroupStaleLookup] != lv.Fallbacks() {
		t.Errorf("group-stale-lookup events = %d, want Fallbacks() = %d",
			counts[obs.EvGroupStaleLookup], lv.Fallbacks())
	}
	if counts[obs.EvGroupInform] != 0 {
		t.Errorf("location view emitted %d group-inform events, want 0", counts[obs.EvGroupInform])
	}
	// View-update operands carry the view delta; sizes stay within [1, m].
	for _, ev := range obs.Filter(tracer.Events(), obs.KindFilter(obs.EvGroupViewUpdate)) {
		if ev.A == -1 && ev.B == -1 {
			t.Errorf("view-update event with no delta: %+v", ev)
		}
		if ev.C < 1 || ev.C > m {
			t.Errorf("view-update size %d out of range [1, %d]", ev.C, m)
		}
	}
}

package group

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
)

func newTestSystem(t *testing.T, m, n int, place func(core.MHID) core.MSSID) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(m, n)
	cfg.Placement = place
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

type deliveryLog struct {
	byMember map[core.MHID]int
	total    int
}

func newDeliveryLog() *deliveryLog {
	return &deliveryLog{byMember: make(map[core.MHID]int)}
}

func (d *deliveryLog) opts() Options {
	return Options{OnDeliver: func(at, from core.MHID, payload any) {
		d.byMember[at]++
		d.total++
	}}
}

func TestPureSearchCostMatchesAnalytic(t *testing.T) {
	const (
		m = 4
		n = 10
		g = 6
	)
	sys := newTestSystem(t, m, n, nil)
	log := newDeliveryLog()
	ps, err := NewPureSearch(sys, core.AllMHs(g), log.opts())
	if err != nil {
		t.Fatalf("NewPureSearch: %v", err)
	}
	if err := ps.Send(core.MHID(0), "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ps.Delivered() != g-1 {
		t.Fatalf("delivered = %d, want %d", ps.Delivered(), g-1)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticPureSearchGroupMsg(g, p)
	if got != want {
		t.Errorf("pure-search cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
}

func TestAlwaysInformCostMatchesAnalytic(t *testing.T) {
	const (
		m = 4
		n = 10
		g = 6
	)
	sys := newTestSystem(t, m, n, nil)
	log := newDeliveryLog()
	ai, err := NewAlwaysInform(sys, core.AllMHs(g), log.opts())
	if err != nil {
		t.Fatalf("NewAlwaysInform: %v", err)
	}
	if err := ai.Send(core.MHID(0), "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ai.Delivered() != g-1 {
		t.Fatalf("delivered = %d, want %d", ai.Delivered(), g-1)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticAlwaysInformGroupMsg(g, p)
	if got != want {
		t.Errorf("always-inform cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
	if stale := sys.Meter().Count(cost.CatStale, cost.KindSearch); stale != 0 {
		t.Errorf("stale searches = %d, want 0 (no mobility)", stale)
	}
}

func TestAlwaysInformUpdateCostMatchesAnalytic(t *testing.T) {
	const (
		m = 4
		n = 10
		g = 5
	)
	sys := newTestSystem(t, m, n, nil)
	log := newDeliveryLog()
	ai, err := NewAlwaysInform(sys, core.AllMHs(g), log.opts())
	if err != nil {
		t.Fatalf("NewAlwaysInform: %v", err)
	}
	// One move: the mover broadcasts a location update costing the same as
	// a group message.
	if err := sys.Move(core.MHID(2), core.MSSID(3)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatLocation, p)
	want := cost.AnalyticAlwaysInformGroupMsg(g, p)
	if got != want {
		t.Errorf("location update cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
	// Every member's directory must now place mh2 at mss3.
	for _, mh := range core.AllMHs(g) {
		dir, err := ai.Directory(mh)
		if err != nil {
			t.Fatalf("Directory: %v", err)
		}
		if dir[core.MHID(2)] != core.MSSID(3) {
			t.Errorf("mh%d's directory has mh2 at mss%d, want mss3", int(mh), int(dir[core.MHID(2)]))
		}
	}
}

func TestAlwaysInformStaleDirectoryStillDelivers(t *testing.T) {
	const g = 4
	sys := newTestSystem(t, 4, 8, nil)
	log := newDeliveryLog()
	ai, err := NewAlwaysInform(sys, core.AllMHs(g), log.opts())
	if err != nil {
		t.Fatalf("NewAlwaysInform: %v", err)
	}
	// Send while a member's location update is still in flight: the copy
	// routed to the old cell is re-forwarded with a (stale-charged) search.
	if err := sys.Move(core.MHID(1), core.MSSID(3)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := ai.Send(core.MHID(0), "x"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ai.Delivered() != g-1 {
		t.Errorf("delivered = %d, want %d (stale copy must still arrive)", ai.Delivered(), g-1)
	}
}

func singleCellPlacement(at core.MSSID) func(core.MHID) core.MSSID {
	return func(core.MHID) core.MSSID { return at }
}

func TestLocationViewCostMatchesAnalytic(t *testing.T) {
	const (
		m = 6
		n = 12
		g = 8
	)
	// Members concentrated in two cells: |LV| = 2 while |G| = 8.
	place := func(mh core.MHID) core.MSSID {
		if int(mh) < 4 {
			return 0
		}
		if int(mh) < g {
			return 1
		}
		return core.MSSID(int(mh) % m)
	}
	sys := newTestSystem(t, m, n, place)
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:     log.opts(),
		Coordinator: core.MSSID(5),
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if got := lv.ViewSize(); got != 2 {
		t.Fatalf("initial |LV| = %d, want 2", got)
	}
	if err := lv.Send(core.MHID(0), "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lv.Delivered() != g-1 {
		t.Fatalf("delivered = %d, want %d", lv.Delivered(), g-1)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticLocationViewGroupMsg(g, 2, p)
	if got != want {
		t.Errorf("location-view cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
}

func TestLocationViewSignificantMoveWithinBound(t *testing.T) {
	const (
		m = 6
		n = 10
		g = 5
	)
	// All members start in cells 0..2 (|LV| = 3, no cell is sole-member for
	// mh0's cell 0 which also hosts mh3).
	place := func(mh core.MHID) core.MSSID { return core.MSSID(int(mh) % 3) }
	sys := newTestSystem(t, m, n, place)
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(5),
		CombineWindow: 200,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	lvBefore := lv.ViewSize()

	// mh0 moves from cell 0 (shared with mh3) to cell 4, outside the view:
	// a pure addition.
	if err := sys.Move(core.MHID(0), core.MSSID(4)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := lv.ViewSize(); got != lvBefore+1 {
		t.Fatalf("|LV| = %d after addition, want %d", got, lvBefore+1)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatLocation, p)
	bound := cost.AnalyticLocationViewUpdateBound(lv.ViewSize(), p)
	if got > bound {
		t.Errorf("view update cost = %v exceeds paper bound %v\n%s", got, bound, sys.Meter().Report(p))
	}
	if got == 0 {
		t.Error("view update cost = 0, expected location traffic")
	}
}

func TestLocationViewCombinedMove(t *testing.T) {
	const (
		m = 5
		n = 6
		g = 3
	)
	// mh2 is the sole member of cell 2; it moves to cell 4, outside the
	// view: the previous MSS must send one combined add+delete request.
	place := func(mh core.MHID) core.MSSID { return core.MSSID(int(mh) % 3) }
	sys := newTestSystem(t, m, n, place)
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(0),
		CombineWindow: 500,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if err := sys.Move(core.MHID(2), core.MSSID(4)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := lv.CombinedRequests(); got != 1 {
		t.Errorf("combined requests = %d, want 1", got)
	}
	if got := lv.ViewSize(); got != 3 {
		t.Errorf("|LV| = %d, want 3 (cell 2 out, cell 4 in)", got)
	}
	view := lv.View()
	wantView := []core.MSSID{0, 1, 4}
	if len(view) != len(wantView) {
		t.Fatalf("view = %v, want %v", view, wantView)
	}
	for i := range view {
		if view[i] != wantView[i] {
			t.Fatalf("view = %v, want %v", view, wantView)
		}
	}
}

func TestLocationViewInsignificantMoveIsFree(t *testing.T) {
	const (
		m = 4
		n = 8
		g = 4
	)
	// All members in cells 0 and 1, two in each. A move between view cells
	// by a non-sole member changes nothing and sends no location traffic.
	place := func(mh core.MHID) core.MSSID { return core.MSSID(int(mh) % 2) }
	sys := newTestSystem(t, m, n, place)
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(3),
		CombineWindow: 200,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if err := sys.Move(core.MHID(0), core.MSSID(1)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := sys.Meter().CategoryCost(cost.CatLocation, sys.Config().Params); got != 0 {
		t.Errorf("location traffic = %v for insignificant move, want 0\n%s",
			got, sys.Meter().Report(sys.Config().Params))
	}
	if got := lv.Updates(); got != 0 {
		t.Errorf("view updates = %d, want 0", got)
	}
	// The view keeps both cells: cell 0 still hosts mh2.
	if got := lv.ViewSize(); got != 2 {
		t.Errorf("|LV| = %d, want 2", got)
	}
}

func TestLocationViewSoleDepartureDeletesCell(t *testing.T) {
	const (
		m = 4
		n = 6
		g = 3
	)
	// mh2 alone in cell 2 moves to cell 0 (inside the view): deletion only.
	place := func(mh core.MHID) core.MSSID { return core.MSSID(int(mh) % 3) }
	sys := newTestSystem(t, m, n, place)
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(3),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if err := sys.Move(core.MHID(2), core.MSSID(0)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := lv.ViewSize(); got != 2 {
		t.Errorf("|LV| = %d, want 2 after sole departure", got)
	}
	for _, id := range lv.View() {
		if id == 2 {
			t.Errorf("view %v still contains deleted cell 2", lv.View())
		}
	}
}

func TestLocationViewDeliveryAfterMoves(t *testing.T) {
	const (
		m = 5
		n = 8
		g = 5
	)
	sys := newTestSystem(t, m, n, singleCellPlacement(0))
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(4),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	// Scatter members, let the view settle, then send.
	if err := sys.Move(core.MHID(1), core.MSSID(1)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Move(core.MHID(2), core.MSSID(2)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.RunUntil(5_000); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := lv.ViewSize(); got != 3 {
		t.Fatalf("|LV| = %d after scatter, want 3", got)
	}
	if err := lv.Send(core.MHID(3), "hi"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lv.Delivered() != g-1 {
		t.Errorf("delivered = %d, want %d", lv.Delivered(), g-1)
	}
	for _, mh := range core.AllMHs(g) {
		if mh == 3 {
			continue
		}
		if log.byMember[mh] != 1 {
			t.Errorf("mh%d received %d copies, want 1", int(mh), log.byMember[mh])
		}
	}
}

func TestLocationViewSenderJustArrivedFallsBack(t *testing.T) {
	const (
		m = 5
		n = 6
		g = 3
	)
	place := func(mh core.MHID) core.MSSID { return 0 }
	sys := newTestSystem(t, m, n, place)
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(4),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	// mh0 moves to an out-of-view cell and sends immediately on arrival,
	// before its cell's full view copy can possibly arrive.
	if err := sys.Move(core.MHID(0), core.MSSID(2)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := lv.Send(core.MHID(0), "eager"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lv.Fallbacks() == 0 {
		t.Error("expected a coordinator fallback for the eager sender")
	}
	if lv.Delivered() != g-1 {
		t.Errorf("delivered = %d, want %d", lv.Delivered(), g-1)
	}
}

func TestGroupCommRejectsNonMembers(t *testing.T) {
	sys := newTestSystem(t, 3, 6, nil)
	log := newDeliveryLog()
	comms := make([]Comm, 0, 3)
	ps, err := NewPureSearch(sys, core.AllMHs(3), log.opts())
	if err != nil {
		t.Fatalf("NewPureSearch: %v", err)
	}
	ai, err := NewAlwaysInform(sys, core.AllMHs(3), log.opts())
	if err != nil {
		t.Fatalf("NewAlwaysInform: %v", err)
	}
	lv, err := NewLocationView(sys, core.AllMHs(3), LocationViewOptions{Options: log.opts()})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	comms = append(comms, ps, ai, lv)
	for _, c := range comms {
		if err := c.Send(core.MHID(5), "x"); err == nil {
			t.Errorf("%s: Send by non-member succeeded, want error", c.Name())
		}
	}
}

// TestLocationViewBadCoordinatorRegistersNothing: a rejected coordinator
// leaves no half-built view on the network, so a member's later move runs
// as if the constructor had never been called.
func TestLocationViewBadCoordinatorRegistersNothing(t *testing.T) {
	sys := newTestSystem(t, 3, 6, nil)
	if _, err := NewLocationView(sys, []core.MHID{0, 1}, LocationViewOptions{Coordinator: 7}); err == nil {
		t.Fatal("NewLocationView accepted coordinator mss7 with M=3")
	}
	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

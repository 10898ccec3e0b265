package group

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// quickConfig gives every property in this file a fixed random source, so
// tier-1 is deterministic: an input quick.Check finds is found on every run,
// and is then pinned by value in lvRegressions.
func quickConfig(maxCount int, seed int64) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// lvExactAfterQuiescence runs one schedule of member moves to quiescence
// and reports, as a non-empty string, any way in which the coordinator's
// LV(G) is not exactly the set of cells hosting at least one member.
func lvExactAfterQuiescence(seed uint64, plan []uint8) string {
	const (
		m = 6
		n = 8
		g = 5
	)
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err.Error()
	}
	lv, err := NewLocationView(sys, membersRange(g), LocationViewOptions{
		Coordinator:   core.MSSID(m - 1),
		CombineWindow: 150,
	})
	if err != nil {
		return err.Error()
	}
	for i, op := range plan {
		if i >= 25 {
			break
		}
		mh := core.MHID(op % g)
		to := core.MSSID((int(op) / 7) % m)
		sys.Schedule(sim.Time(i*37), func() {
			if _, st := sys.Where(mh); st == core.StatusConnected {
				_ = sys.Move(mh, to)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return err.Error()
	}

	// Exact view: cells hosting >= 1 member.
	want := make(map[core.MSSID]bool)
	for i := 0; i < g; i++ {
		at, st := sys.Where(core.MHID(i))
		if st != core.StatusConnected {
			return fmt.Sprintf("mh%d not connected at quiescence", i)
		}
		want[at] = true
	}
	view := lv.View()
	for _, id := range view {
		if !want[id] {
			return fmt.Sprintf("view %v holds mss%d, which hosts no member", view, int(id))
		}
		delete(want, id)
	}
	for id := range want {
		return fmt.Sprintf("view %v lacks mss%d, which hosts a member", view, int(id))
	}
	return ""
}

// lvDeliversAfterQuiescence runs one schedule of member moves to
// quiescence, sends one group message, and reports any member other than
// the sender that did not get exactly one copy.
func lvDeliversAfterQuiescence(seed uint64, plan []uint8) string {
	const (
		m = 5
		n = 8
		g = 4
	)
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err.Error()
	}
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, membersRange(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(0),
		CombineWindow: 100,
	})
	if err != nil {
		return err.Error()
	}
	for i, op := range plan {
		if i >= 15 {
			break
		}
		mh := core.MHID(op % g)
		to := core.MSSID((int(op) / 5) % m)
		sys.Schedule(sim.Time(i*43), func() {
			if _, st := sys.Where(mh); st == core.StatusConnected {
				_ = sys.Move(mh, to)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return err.Error()
	}
	// Quiescent now; send one message.
	if err := lv.Send(core.MHID(1), "ping"); err != nil {
		return err.Error()
	}
	if err := sys.Run(); err != nil {
		return err.Error()
	}
	for _, mh := range membersRange(g) {
		want := 1
		if mh == 1 {
			want = 0
		}
		if log.byMember[mh] != want {
			at, _ := sys.Where(mh)
			return fmt.Sprintf("mh%d at mss%d got %d copies, want %d (view %v)", int(mh), int(at), log.byMember[mh], want, lv.View())
		}
	}
	if lv.Delivered() != g-1 {
		return fmt.Sprintf("delivered %d, want %d", lv.Delivered(), g-1)
	}
	return ""
}

// TestPropertyLocationViewExactAfterQuiescence: after any schedule of member
// moves drains, the coordinator's LV(G) is exactly the set of cells hosting
// at least one member.
func TestPropertyLocationViewExactAfterQuiescence(t *testing.T) {
	check := func(seed uint64, plan []uint8) bool { return lvExactAfterQuiescence(seed, plan) == "" }
	if err := quick.Check(check, quickConfig(120, 1)); err != nil {
		t.Error(err)
	}
}

// TestPropertyLocationViewDeliversAfterQuiescence: once the view settles, a
// group message reaches exactly the other members, wherever they ended up.
func TestPropertyLocationViewDeliversAfterQuiescence(t *testing.T) {
	check := func(seed uint64, plan []uint8) bool { return lvDeliversAfterQuiescence(seed, plan) == "" }
	if err := quick.Check(check, quickConfig(100, 2)); err != nil {
		t.Error(err)
	}
}

// lvRegressions are inputs quick.Check once found (time-seeded, about one
// tier-1 run in fifteen) against the coordinator hosting members: the full
// copy it mails itself on its own re-addition is overtaken by changes it
// applies in place, and taking the stale snapshot either lost a cell from
// its copy (first input: mh2 at mss3 never reached) or made it believe it
// was still in the view after its own deletion, so the next member to join
// its cell requested no addition (the other three). Each failed on every
// run before syncCoordinatorCopy.
var lvRegressions = []struct {
	name  string
	check func(seed uint64, plan []uint8) string
	seed  uint64
	plan  []uint8
}{
	{"delivers-stale-self-copy-drops-cell", lvDeliversAfterQuiescence, 0x6282156582a4a65b,
		[]uint8{0x0d, 0xf2, 0x8b, 0x81, 0xc5, 0xf0, 0x80, 0xac, 0x48, 0x49, 0xdb, 0x62, 0x4f, 0x12, 0x7d}},
	{"delivers-coordinator-cell-missing", lvDeliversAfterQuiescence, 0x16006386cfa79845,
		[]uint8{0xf5, 0xc0, 0xf2, 0x95, 0xc8, 0x24, 0x51, 0x3c, 0x11, 0x67, 0x7b, 0x38, 0x4a, 0x66, 0x60}},
	{"exact-coordinator-cell-missing", lvExactAfterQuiescence, 0xce07cbf9d1573fab,
		[]uint8{0x9c, 0xc8, 0x0c, 0x6b, 0x71, 0xe3, 0x1f, 0x36, 0x65, 0x27, 0xa9, 0x73, 0x11, 0x54, 0x4c, 0x93, 0x9f, 0x96, 0x4d, 0xb6, 0x23}},
	{"exact-coordinator-cell-missing-short", lvExactAfterQuiescence, 0x632c7d53d3ecb7a,
		[]uint8{0x80, 0xfa, 0xec, 0x32, 0x90, 0x57, 0x31, 0x7c, 0xdb, 0x7a, 0x39, 0x7b, 0x47}},
}

func TestLocationViewCoordinatorHostsMembersRegressions(t *testing.T) {
	for _, tc := range lvRegressions {
		t.Run(tc.name, func(t *testing.T) {
			if msg := tc.check(tc.seed, tc.plan); msg != "" {
				t.Errorf("seed %#x plan % x: %s", tc.seed, tc.plan, msg)
			}
		})
	}
}

// TestPropertyAlwaysInformDirectoriesConverge: after moves drain, every
// member's directory agrees with reality.
func TestPropertyAlwaysInformDirectoriesConverge(t *testing.T) {
	check := func(seed uint64, plan []uint8) bool {
		const (
			m = 4
			n = 6
			g = 4
		)
		cfg := core.DefaultConfig(m, n)
		cfg.Seed = seed
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return false
		}
		ai, err := NewAlwaysInform(sys, membersRange(g), Options{})
		if err != nil {
			return false
		}
		for i, op := range plan {
			if i >= 12 {
				break
			}
			mh := core.MHID(op % g)
			to := core.MSSID((int(op) / 5) % m)
			sys.Schedule(sim.Time(i*51), func() {
				if _, st := sys.Where(mh); st == core.StatusConnected {
					_ = sys.Move(mh, to)
				}
			})
		}
		if err := sys.Run(); err != nil {
			return false
		}
		for _, owner := range membersRange(g) {
			dir, err := ai.Directory(owner)
			if err != nil {
				return false
			}
			for _, member := range membersRange(g) {
				at, _ := sys.Where(member)
				if dir[member] != at {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, quickConfig(100, 3)); err != nil {
		t.Error(err)
	}
}

func TestLocationViewConcurrentSignificantMoves(t *testing.T) {
	// Two members leave their (sole-member) cells for two fresh cells at
	// the same instant: the coordinator must serialize both updates and all
	// copies must converge to the exact view.
	const (
		m = 8
		n = 4
		g = 4
	)
	place := func(mh core.MHID) core.MSSID { return core.MSSID(int(mh)) } // one per cell 0..3
	cfg := core.DefaultConfig(m, n)
	cfg.Placement = place
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, membersRange(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(7),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if err := sys.Move(core.MHID(0), core.MSSID(4)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Move(core.MHID(1), core.MSSID(5)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	view := lv.View()
	want := []core.MSSID{2, 3, 4, 5}
	if len(view) != len(want) {
		t.Fatalf("view = %v, want %v", view, want)
	}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view = %v, want %v", view, want)
		}
	}
	// Both were combined add+delete requests.
	if got := lv.CombinedRequests(); got != 2 {
		t.Errorf("combined = %d, want 2", got)
	}
	// A message must now reach all three other members.
	if err := lv.Send(core.MHID(2), "x"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lv.Delivered() != g-1 {
		t.Errorf("delivered = %d, want %d", lv.Delivered(), g-1)
	}
}

func TestLocationViewDisconnectedSoleMemberDeletesCell(t *testing.T) {
	const (
		m = 4
		n = 3
		g = 3
	)
	place := func(mh core.MHID) core.MSSID { return core.MSSID(int(mh)) }
	cfg := core.DefaultConfig(m, n)
	cfg.Placement = place
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	lv, err := NewLocationView(sys, membersRange(g), LocationViewOptions{
		Coordinator:   core.MSSID(3),
		CombineWindow: 50,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if err := sys.Disconnect(core.MHID(2)); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := lv.ViewSize(); got != 2 {
		t.Errorf("|LV| = %d after sole member disconnected, want 2", got)
	}
	// Reconnecting elsewhere re-adds the new cell.
	if err := sys.Reconnect(core.MHID(2), core.MSSID(0), true); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := lv.ViewSize(); got != 2 { // cells 0 (now two members) and 1
		t.Errorf("|LV| = %d after reconnect, want 2", got)
	}
	view := lv.View()
	if view[0] != 0 || view[1] != 1 {
		t.Errorf("view = %v, want [0 1]", view)
	}
}

func TestGroupStrategiesUnderChurnStillDeliverToConnected(t *testing.T) {
	// With one member churning, messages sent while it is away are lost to
	// it (group semantics have no store-and-forward) but every connected
	// member still gets every message.
	const (
		m = 4
		n = 6
		g = 4
	)
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = 23
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	log := newDeliveryLog()
	lvg, err := NewLocationView(sys, membersRange(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(3),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	if _, err := workload.NewChurn(sys, workload.ChurnConfig{
		MHs:       []core.MHID{3},
		UpFor:     workload.FixedSpan(500),
		DownFor:   workload.FixedSpan(2_000),
		Cycles:    1,
		KnowsPrev: true,
	}); err != nil {
		t.Fatalf("NewChurn: %v", err)
	}
	// Send one message while mh3 is surely disconnected.
	sys.Schedule(1_500, func() {
		if err := lvg.Send(core.MHID(0), "away"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, mh := range []core.MHID{1, 2} {
		if log.byMember[mh] != 1 {
			t.Errorf("mh%d got %d copies, want 1", int(mh), log.byMember[mh])
		}
	}
	if log.byMember[core.MHID(3)] != 0 {
		t.Errorf("disconnected mh3 got %d copies, want 0", log.byMember[core.MHID(3)])
	}
	// No stale cost should hide algorithm traffic miscounting.
	if alg := sys.Meter().CategoryCost(cost.CatAlgorithm, cfg.Params); alg <= 0 {
		t.Error("no algorithm cost recorded")
	}
}

package group

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/multicast"
)

// TestOverlappingGroupsAreIsolated registers two location-view groups with
// overlapping membership on one network and checks their views and
// deliveries do not interfere.
func TestOverlappingGroupsAreIsolated(t *testing.T) {
	const (
		m = 6
		n = 10
	)
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = 51
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	logA := newDeliveryLog()
	logB := newDeliveryLog()
	// Group A: mh0..4; group B: mh3..7 (overlap on 3 and 4).
	groupA := []core.MHID{0, 1, 2, 3, 4}
	groupB := []core.MHID{3, 4, 5, 6, 7}
	lvA, err := NewLocationView(sys, groupA, LocationViewOptions{
		Options:       logA.opts(),
		Coordinator:   core.MSSID(0),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView A: %v", err)
	}
	lvB, err := NewLocationView(sys, groupB, LocationViewOptions{
		Options:       logB.opts(),
		Coordinator:   core.MSSID(5),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView B: %v", err)
	}

	// Move an overlap member (mh3) to a fresh cell: both views must update.
	if err := sys.Move(core.MHID(3), core.MSSID(5)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for name, lv := range map[string]*LocationView{"A": lvA, "B": lvB} {
		found := false
		for _, id := range lv.View() {
			if id == 5 {
				found = true
			}
		}
		if !found {
			t.Errorf("group %s view %v missing cell 5 after overlap member moved", name, lv.View())
		}
	}

	// Messages stay within their group.
	if err := lvA.Send(core.MHID(0), "for-A"); err != nil {
		t.Fatalf("Send A: %v", err)
	}
	if err := lvB.Send(core.MHID(7), "for-B"); err != nil {
		t.Fatalf("Send B: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lvA.Delivered() != int64(len(groupA)-1) {
		t.Errorf("group A delivered = %d, want %d", lvA.Delivered(), len(groupA)-1)
	}
	if lvB.Delivered() != int64(len(groupB)-1) {
		t.Errorf("group B delivered = %d, want %d", lvB.Delivered(), len(groupB)-1)
	}
	if logA.byMember[core.MHID(7)] != 0 {
		t.Error("non-member mh7 received group A traffic")
	}
	if logB.byMember[core.MHID(0)] != 0 {
		t.Error("non-member mh0 received group B traffic")
	}
	// Overlap members got exactly one copy from each group.
	for _, mh := range []core.MHID{3, 4} {
		if logA.byMember[mh] != 1 || logB.byMember[mh] != 1 {
			t.Errorf("overlap mh%d copies: A=%d B=%d, want 1/1",
				int(mh), logA.byMember[mh], logB.byMember[mh])
		}
	}
}

// TestGroupAndMulticastShareMembers co-registers a location-view group and a
// multicast feed over the same members; both must meet their guarantees
// through shared mobility.
func TestGroupAndMulticastShareMembers(t *testing.T) {
	const (
		m = 5
		n = 8
		g = 5
	)
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = 53
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	log := newDeliveryLog()
	lv, err := NewLocationView(sys, core.AllMHs(g), LocationViewOptions{
		Options:       log.opts(),
		Coordinator:   core.MSSID(m - 1),
		CombineWindow: 100,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	feed := make(map[core.MHID][]int64)
	mc, err := multicast.New(sys, core.AllMHs(g), multicast.Options{
		Sequencer: core.MSSID(0),
		OnDeliver: func(at core.MHID, seq int64, _ any) { feed[at] = append(feed[at], seq) },
	})
	if err != nil {
		t.Fatalf("multicast.New: %v", err)
	}

	if err := mc.Publish(core.MHID(1), "one"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	sys.Schedule(500, func() {
		if err := sys.Move(core.MHID(2), core.MSSID(4)); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	sys.Schedule(2_000, func() {
		if err := lv.Send(core.MHID(0), "group"); err != nil {
			t.Errorf("Send: %v", err)
		}
		if err := mc.Publish(core.MHID(3), "two"); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lv.Delivered() != g-1 {
		t.Errorf("group delivered = %d, want %d", lv.Delivered(), g-1)
	}
	for i := 0; i < g; i++ {
		seqs := feed[core.MHID(i)]
		if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
			t.Errorf("feed member mh%d got %v, want [0 1]", i, seqs)
		}
	}
}

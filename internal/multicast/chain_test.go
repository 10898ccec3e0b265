package multicast

import (
	"testing"

	"mobiledist/internal/core"
)

// slowWiredSystem builds a system whose wired links are slow relative to
// travel time, forcing watermark-handoff requests to pile up behind a
// moving member (the request-parking chains).
func slowWiredSystem(t *testing.T, m, n int, seed uint64) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	cfg.Wired = core.Delay{Min: 200, Max: 300}
	cfg.Travel = core.Delay{Min: 5, Max: 10}
	cfg.Wireless = core.Delay{Min: 1, Max: 2}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestMulticastRapidMultiHopChain(t *testing.T) {
	// mh1 hops A→B→C→D faster than any handoff request can travel the slow
	// wired network: the requests park at each hop and ownership flows down
	// the chain when the replies catch up. Every item must still arrive
	// exactly once, in order.
	const (
		m = 5
		g = 3
	)
	sys := slowWiredSystem(t, m, g, 61)
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(g), Options{Sequencer: 4, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mc.Publish(core.MHID(0), "pre"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Rapid hops: each scheduled as soon as the previous completes.
	hops := []core.MSSID{2, 3, 4}
	var hop func(i int)
	hop = func(i int) {
		if i >= len(hops) {
			return
		}
		if _, st := sys.Where(core.MHID(1)); st == core.StatusConnected {
			if err := sys.Move(core.MHID(1), hops[i]); err != nil {
				t.Errorf("Move: %v", err)
			}
			sys.Schedule(20, func() { hop(i + 1) })
			return
		}
		sys.Schedule(5, func() { hop(i) })
	}
	sys.Schedule(50, func() { hop(0) })
	// A second item published mid-chain.
	sys.Schedule(120, func() {
		if err := mc.Publish(core.MHID(2), "mid"); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(g), 2)
	if mc.Handoffs() == 0 {
		t.Error("expected handoffs along the chain")
	}
}

func TestMulticastChainWithReturnTrip(t *testing.T) {
	// A→B→A→B with slow wired links: exercises the epoch pruning of parked
	// requests (a stale parked request must not steal ownership back).
	const g = 2
	sys := slowWiredSystem(t, 3, g, 67)
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(g), Options{Sequencer: 2, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mc.Publish(core.MHID(0), 0); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// mh1 starts at mss1; bounce 1→0→1→0.
	seqMoves := []core.MSSID{0, 1, 0}
	var hop func(i int)
	hop = func(i int) {
		if i >= len(seqMoves) {
			return
		}
		if _, st := sys.Where(core.MHID(1)); st == core.StatusConnected {
			if err := sys.Move(core.MHID(1), seqMoves[i]); err != nil {
				t.Errorf("Move: %v", err)
			}
			sys.Schedule(25, func() { hop(i + 1) })
			return
		}
		sys.Schedule(5, func() { hop(i) })
	}
	sys.Schedule(40, func() { hop(0) })
	sys.Schedule(3_000, func() {
		if err := mc.Publish(core.MHID(0), 1); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(g), 2)
}

func TestMulticastAccessors(t *testing.T) {
	sys := newSys(t, 3, 3, 71)
	mc, err := New(sys, core.AllMHs(2), Options{Sequencer: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if mc.Name() == "" {
		t.Error("empty name")
	}
	if mc.Rollbacks() != 0 || mc.LostRollbacks() != 0 {
		t.Error("fresh group has rollbacks")
	}
	if err := mc.Publish(core.MHID(0), "x"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mc.Published() != 1 || mc.Delivered() != 2 {
		t.Errorf("published=%d delivered=%d, want 1/2", mc.Published(), mc.Delivered())
	}
}

package multicast

import (
	"testing"
	"testing/quick"

	"mobiledist/internal/core"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

func newSys(t *testing.T, m, n int, seed uint64) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// receiver records per-member delivery sequences.
type receiver struct {
	got map[core.MHID][]int64
}

func newReceiver() *receiver { return &receiver{got: make(map[core.MHID][]int64)} }

func (r *receiver) onDeliver(at core.MHID, seq int64, payload any) {
	r.got[at] = append(r.got[at], seq)
}

// verify checks every member received 0..count-1 exactly once, in order.
func (r *receiver) verify(t *testing.T, mhs []core.MHID, count int64) {
	t.Helper()
	for _, mh := range mhs {
		seqs := r.got[mh]
		if int64(len(seqs)) != count {
			t.Errorf("mh%d received %d messages, want %d (%v)", int(mh), len(seqs), count, seqs)
			continue
		}
		for i, s := range seqs {
			if s != int64(i) {
				t.Errorf("mh%d sequence %v out of order at %d", int(mh), seqs, i)
				break
			}
		}
	}
}

func (r *receiver) ok(mhs []core.MHID, count int64) bool {
	for _, mh := range mhs {
		seqs := r.got[mh]
		if int64(len(seqs)) != count {
			return false
		}
		for i, s := range seqs {
			if s != int64(i) {
				return false
			}
		}
	}
	return true
}

func TestMulticastStaticDelivery(t *testing.T) {
	const (
		m = 4
		n = 8
		g = 5
	)
	sys := newSys(t, m, n, 1)
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(g), Options{Sequencer: 0, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 4; i++ {
		from := core.MHID(i % g)
		sys.Schedule(sim.Time(i*100), func() {
			if err := mc.Publish(from, i); err != nil {
				t.Errorf("Publish: %v", err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mc.Published() != 4 {
		t.Fatalf("published = %d, want 4", mc.Published())
	}
	rcv.verify(t, core.AllMHs(g), 4)
	if mc.Delivered() != 4*g {
		t.Errorf("delivered = %d, want %d", mc.Delivered(), 4*g)
	}
}

func TestMulticastMemberMovesBetweenMessages(t *testing.T) {
	const (
		m = 4
		n = 6
		g = 3
	)
	sys := newSys(t, m, n, 2)
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(g), Options{Sequencer: 3, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mc.Publish(core.MHID(0), "a"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	sys.Schedule(1_000, func() {
		if err := sys.Move(core.MHID(1), core.MSSID(3)); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	sys.Schedule(2_000, func() {
		if err := mc.Publish(core.MHID(2), "b"); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(g), 2)
	if mc.Handoffs() != 1 {
		t.Errorf("handoffs = %d, want 1", mc.Handoffs())
	}
}

func TestMulticastBacklogDeliveredAfterMove(t *testing.T) {
	// Messages published while a member is between cells arrive as a
	// backlog when it joins.
	cfg := core.DefaultConfig(4, 4)
	cfg.Seed = 3
	cfg.Travel = core.Delay{Min: 5_000, Max: 5_000} // long transit
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(3), Options{Sequencer: 0, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Move(core.MHID(1), core.MSSID(3)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	for i := 0; i < 3; i++ {
		sys.Schedule(sim.Time(100+i*50), func() {
			if err := mc.Publish(core.MHID(0), i); err != nil {
				t.Errorf("Publish: %v", err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(3), 3)
}

func TestMulticastReturnTripKeepsOwnership(t *testing.T) {
	// A member that moves away and returns must not lose or duplicate
	// deliveries (the epoch-pruned handoff case).
	sys := newSys(t, 3, 3, 4)
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(2), Options{Sequencer: 2, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mc.Publish(core.MHID(0), "before"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	sys.Schedule(500, func() {
		if err := sys.Move(core.MHID(1), core.MSSID(2)); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	sys.Schedule(1_000, func() {
		if _, st := sys.Where(core.MHID(1)); st == core.StatusConnected {
			if err := sys.Move(core.MHID(1), core.MSSID(1)); err != nil {
				t.Errorf("Move: %v", err)
			}
		}
	})
	sys.Schedule(5_000, func() {
		if err := mc.Publish(core.MHID(0), "after"); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(2), 2)
}

func TestMulticastDisconnectedMemberCatchesUp(t *testing.T) {
	sys := newSys(t, 4, 4, 5)
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(3), Options{Sequencer: 0, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// mh2 disconnects; three messages flow; mh2 reconnects elsewhere and
	// must receive all three, in order.
	if err := sys.Disconnect(core.MHID(2)); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	for i := 0; i < 3; i++ {
		sys.Schedule(sim.Time(500+i*200), func() {
			if err := mc.Publish(core.MHID(0), i); err != nil {
				t.Errorf("Publish: %v", err)
			}
		})
	}
	sys.Schedule(5_000, func() {
		if err := sys.Reconnect(core.MHID(2), core.MSSID(3), true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(3), 3)
}

func TestMulticastDeliveryRacingDisconnect(t *testing.T) {
	// A message already on the wireless link when the member disconnects
	// must be redelivered after reconnection (the watermark rollback).
	cfg := core.DefaultConfig(3, 3)
	cfg.Seed = 6
	cfg.Wireless = core.Delay{Min: 50, Max: 50}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(2), Options{Sequencer: 2, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mc.Publish(core.MHID(0), "racy"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Disconnect mh1 while the delivery is (most likely) in the air.
	sys.Schedule(60, func() {
		if _, st := sys.Where(core.MHID(1)); st == core.StatusConnected {
			if err := sys.Disconnect(core.MHID(1)); err != nil {
				t.Errorf("Disconnect: %v", err)
			}
		}
	})
	sys.Schedule(2_000, func() {
		if _, st := sys.Where(core.MHID(1)); st == core.StatusDisconnected {
			if err := sys.Reconnect(core.MHID(1), core.MSSID(0), true); err != nil {
				t.Errorf("Reconnect: %v", err)
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(2), 1)
}

func TestMulticastRejectsBadConfig(t *testing.T) {
	sys := newSys(t, 3, 3, 7)
	if _, err := New(sys, nil, Options{}); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := New(sys, []core.MHID{0, 0}, Options{}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := New(sys, core.AllMHs(2), Options{Sequencer: 9}); err == nil {
		t.Error("invalid sequencer accepted")
	}
	mc, err := New(sys, core.AllMHs(2), Options{Sequencer: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mc.Publish(core.MHID(2), "x"); err == nil {
		t.Error("publish by non-member accepted")
	}
}

// TestMulticastBadSequencerRegistersNothing: a rejected sequencer leaves
// no half-built group on the network, so a member's later move runs as if
// the constructor had never been called.
func TestMulticastBadSequencerRegistersNothing(t *testing.T) {
	sys := newSys(t, 3, 6, 1)
	if _, err := New(sys, core.AllMHs(3), Options{Sequencer: 9}); err == nil {
		t.Fatal("New accepted sequencer mss9 with M=3")
	}
	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestMulticastBuiltMidMoveDelivers: a group built while one member's
// leave and another's disconnect are still on their way up gives the
// watermarks to the cells that list them, so the handoffs that follow
// find them and every member gets every message.
func TestMulticastBuiltMidMoveDelivers(t *testing.T) {
	sys := newSys(t, 3, 6, 1)
	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	rcv := newReceiver()
	mc, err := New(sys, core.AllMHs(3), Options{Sequencer: 0, OnDeliver: rcv.onDeliver})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		sys.Schedule(sim.Time(500+i*200), func() {
			if err := mc.Publish(2, i); err != nil {
				t.Errorf("Publish: %v", err)
			}
		})
	}
	sys.Schedule(5_000, func() {
		if err := sys.Reconnect(1, 0, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rcv.verify(t, core.AllMHs(3), 3)
}

// TestPropertyExactlyOnceOrderedUnderChaos is the package's central
// invariant: for arbitrary interleavings of publishes, moves and
// disconnect/reconnect churn, every member receives every message exactly
// once in sequence order after the network drains.
func TestPropertyExactlyOnceOrderedUnderChaos(t *testing.T) {
	check := func(seed uint64, mobilityRaw, msgsRaw uint8) bool {
		const (
			m = 5
			n = 6
			g = 4
		)
		cfg := core.DefaultConfig(m, n)
		cfg.Seed = seed
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return false
		}
		rcv := newReceiver()
		mc, err := New(sys, core.AllMHs(g), Options{Sequencer: core.MSSID(m - 1), OnDeliver: rcv.onDeliver})
		if err != nil {
			return false
		}
		msgs := int(msgsRaw%6) + 2
		for i := 0; i < msgs; i++ {
			from := core.MHID(i % g)
			sys.Schedule(sim.Time(i*400), func() {
				// A disconnected publisher skips its slot; published count
				// is read back below.
				_ = mc.Publish(from, i)
			})
		}
		if _, err := workload.NewMobility(sys, workload.MobilityConfig{
			MHs:        core.AllMHs(g),
			Interval:   workload.Span{Min: 100, Max: 600},
			MovesPerMH: int(mobilityRaw % 4),
			Locality:   0.5,
		}); err != nil {
			return false
		}
		// One member churns.
		if _, err := workload.NewChurn(sys, workload.ChurnConfig{
			MHs:       []core.MHID{3},
			UpFor:     workload.Span{Min: 300, Max: 900},
			DownFor:   workload.Span{Min: 200, Max: 600},
			Cycles:    1,
			KnowsPrev: true,
		}); err != nil {
			return false
		}
		if err := sys.Run(); err != nil {
			return false
		}
		return rcv.ok(core.AllMHs(g), mc.Published()) && mc.LostRollbacks() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRollbackRetriesAreBounded: a watermark rollback chasing a member that
// never reconnects is retried exactly maxRollbackTries times, then
// abandoned and counted — the chase must not loop forever.
func TestRollbackRetriesAreBounded(t *testing.T) {
	sys := newSys(t, 2, 2, 1)
	g, err := New(sys, core.AllMHs(2), Options{Sequencer: 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Simulate the trigger: a rollback for mh1 bounced off the member's
	// disconnection (the race normally needs a handoff in flight; injecting
	// the bounced message exercises the identical handler path).
	sys.Schedule(0, func() {
		g.OnDeliveryFailure(g.ctx, 0, 1, mcStateRollback{MH: 1, Seq: 0}, core.FailDisconnected)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := g.LostRollbacks(); got != 1 {
		t.Errorf("LostRollbacks = %d, want 1 (retry bound not enforced)", got)
	}
	// The retries must actually have happened: maxRollbackTries chases,
	// each one bouncing, each costing a search.
	if got := sys.Stats().FailedDeliveries; got < int64(maxRollbackTries) {
		t.Errorf("FailedDeliveries = %d, want >= %d bounced chases", got, maxRollbackTries)
	}
}

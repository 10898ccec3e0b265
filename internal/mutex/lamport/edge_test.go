package lamport

import (
	"testing"
	"testing/quick"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

func TestL2GrantsFollowInitArrivalOrder(t *testing.T) {
	// With requests arriving at distinct MSSs far apart in time, grants
	// must follow arrival (timestamp) order.
	sys := newTestSystem(t, 4, 8)
	var order []core.MHID
	l2 := NewL2(sys, Options{
		Hold:    5,
		OnEnter: func(mh core.MHID) { order = append(order, mh) },
	})
	// mh3 (at mss3) first, mh0 (at mss0) second, mh5 (at mss1) third.
	reqs := []core.MHID{3, 0, 5}
	for i, mh := range reqs {
		mh := mh
		sys.Schedule(sim.Time(i*5_000), func() {
			if err := l2.Request(mh); err != nil {
				t.Errorf("Request: %v", err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != len(reqs) {
		t.Fatalf("grants = %v", order)
	}
	for i := range reqs {
		if order[i] != reqs[i] {
			t.Fatalf("grant order %v, want %v", order, reqs)
		}
	}
}

func TestL2SingleMSS(t *testing.T) {
	// M = 1: Lamport degenerates to a local queue; everything still works.
	sys := newTestSystem(t, 1, 4)
	mon := &monitor{t: t}
	l2 := NewL2(sys, mon.options(3))
	for i := 0; i < 4; i++ {
		mh := core.MHID(i)
		sys.Schedule(sim.Time(i), func() {
			if err := l2.Request(mh); err != nil {
				t.Errorf("Request: %v", err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l2.Grants(); got != 4 {
		t.Errorf("grants = %d, want 4", got)
	}
}

func TestL1SingleParticipant(t *testing.T) {
	sys := newTestSystem(t, 2, 3)
	mon := &monitor{t: t}
	l1, err := NewL1(sys, []core.MHID{1}, mon.options(2))
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}
	if err := l1.Request(core.MHID(1)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l1.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
}

func TestL1EnergyConcentratesAtInitiator(t *testing.T) {
	// The paper: the initiator's energy is proportional to 3(N−1), each
	// other MH's to 3 (receive request and release, send reply).
	const n = 6
	sys := newTestSystem(t, 3, n)
	mon := &monitor{t: t}
	l1, err := NewL1(sys, core.AllMHs(n), mon.options(3))
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}
	if err := l1.Request(core.MHID(2)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tx, rx := sys.Meter().Energy(2)
	if tx+rx != 3*(n-1) {
		t.Errorf("initiator energy = %d, want %d", tx+rx, 3*(n-1))
	}
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		tx, rx := sys.Meter().Energy(i)
		if tx+rx != 3 {
			t.Errorf("mh%d energy = %d, want 3", i, tx+rx)
		}
	}
}

func TestL2CostUnaffectedByNonRequesterChurn(t *testing.T) {
	// Disconnection of MHs without pending requests must not change L2's
	// algorithm cost at all (the paper's key disconnection claim).
	run := func(churn bool) float64 {
		cfg := core.DefaultConfig(5, 10)
		cfg.Seed = 9
		sys := core.MustNewSystem(cfg)
		l2 := NewL2(sys, Options{Hold: 5})
		if err := l2.Request(core.MHID(0)); err != nil {
			t.Fatalf("Request: %v", err)
		}
		if churn {
			for _, mh := range []core.MHID{6, 7, 8} {
				if err := sys.Disconnect(mh); err != nil {
					t.Fatalf("Disconnect: %v", err)
				}
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sys.Meter().CategoryCost(cost.CatAlgorithm, cfg.Params)
	}
	if quiet, noisy := run(false), run(true); quiet != noisy {
		t.Errorf("algorithm cost changed with bystander churn: %v vs %v", quiet, noisy)
	}
}

// TestPropertyL2GrantBalance: across random workloads, grants + aborted
// grants equals requests issued, and the request guard never wedges (every
// requester can request again after completion).
func TestPropertyL2GrantBalance(t *testing.T) {
	check := func(seed uint64, moveRaw uint8) bool {
		const (
			m = 4
			n = 8
		)
		cfg := core.DefaultConfig(m, n)
		cfg.Seed = seed
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return false
		}
		l2 := NewL2(sys, Options{Hold: 4})
		req, err := workload.NewRequests(sys, workload.RequestConfig{
			Interval:      workload.Span{Min: 30, Max: 200},
			RequestsPerMH: 2,
		}, l2.Request)
		if err != nil {
			return false
		}
		if _, err := workload.NewMobility(sys, workload.MobilityConfig{
			Interval:   workload.Span{Min: 50, Max: 300},
			MovesPerMH: int(moveRaw % 3),
		}); err != nil {
			return false
		}
		if err := sys.Run(); err != nil {
			return false
		}
		return l2.Grants()+l2.FailedGrants() == req.Issued()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestL1GrantsFollowTimestampOrder(t *testing.T) {
	// Requests issued one at a time (each after the previous is visible
	// network-wide would be too strong; instead assert total grants and
	// that the first requester wins when it requests far earlier).
	sys := newTestSystem(t, 3, 5)
	var order []core.MHID
	opts := Options{Hold: 3, OnEnter: func(mh core.MHID) { order = append(order, mh) }}
	l1, err := NewL1(sys, core.AllMHs(5), opts)
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}
	if err := l1.Request(core.MHID(4)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	sys.Schedule(10_000, func() {
		if err := l1.Request(core.MHID(1)); err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != 4 || order[1] != 1 {
		t.Errorf("grant order = %v, want [4 1]", order)
	}
}

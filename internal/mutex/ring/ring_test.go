package ring

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

type monitor struct {
	t       *testing.T
	holders int
	entries []core.MHID
}

func (m *monitor) options(hold sim.Time) Options {
	return Options{
		Hold: hold,
		OnEnter: func(mh core.MHID) {
			m.holders++
			m.entries = append(m.entries, mh)
			if m.holders > 1 {
				m.t.Errorf("mutual exclusion violated: %d holders when mh%d entered", m.holders, int(mh))
			}
		},
		OnExit: func(mh core.MHID) { m.holders-- },
	}
}

func newTestSystem(t *testing.T, m, n int) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestR1TraversalCostMatchesAnalytic(t *testing.T) {
	const (
		m = 4
		n = 7
	)
	sys := newTestSystem(t, m, n)
	mon := &monitor{t: t}
	r1, err := NewR1(sys, core.AllMHs(n), mon.options(3), false, 1)
	if err != nil {
		t.Fatalf("NewR1: %v", err)
	}
	if err := r1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r1.Traversals(); got != 1 {
		t.Fatalf("traversals = %d, want 1", got)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticR1PerTraversal(n, p)
	if got != want {
		t.Errorf("R1 traversal cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
}

func TestR1CostIndependentOfRequests(t *testing.T) {
	const (
		m = 3
		n = 6
	)
	costFor := func(requests int) float64 {
		sys := newTestSystem(t, m, n)
		mon := &monitor{t: t}
		r1, err := NewR1(sys, core.AllMHs(n), mon.options(2), false, 1)
		if err != nil {
			t.Fatalf("NewR1: %v", err)
		}
		for i := 0; i < requests; i++ {
			if err := r1.Request(core.MHID(i)); err != nil {
				t.Fatalf("Request: %v", err)
			}
		}
		if err := r1.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := r1.Grants(); got != int64(requests) {
			t.Fatalf("grants = %d, want %d", got, requests)
		}
		return sys.Meter().CategoryCost(cost.CatAlgorithm, sys.Config().Params)
	}
	if c0, c4 := costFor(0), costFor(4); c0 != c4 {
		t.Errorf("R1 traversal cost varies with requests: %v vs %v", c0, c4)
	}
}

func TestR2TraversalCostMatchesAnalytic(t *testing.T) {
	const (
		m = 5
		n = 11
		k = 4
	)
	sys := newTestSystem(t, m, n)
	mon := &monitor{t: t}
	r2, err := NewR2(sys, VariantPlain, mon.options(3), 1, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	for i := 0; i < k; i++ {
		if err := r2.Request(core.MHID(i)); err != nil {
			t.Fatalf("Request: %v", err)
		}
	}
	// Let the requests reach their MSSs before the token starts.
	sys.Schedule(100, func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r2.Grants(); got != k {
		t.Fatalf("grants = %d, want %d", got, k)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticR2PerTraversal(m, k, p)
	if got != want {
		t.Errorf("R2 traversal cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
}

func TestR2CounterLimitsAccessesPerTraversal(t *testing.T) {
	const (
		m = 4
		n = 4
	)
	// mh0 chases the token: after each access it re-requests immediately.
	// Under R2 it can be granted several times per traversal; under R2' at
	// most once.
	run := func(variant Variant) []int64 {
		sys := newTestSystem(t, m, n)
		mon := &monitor{t: t}
		opts := mon.options(2)
		var r2 *R2
		base := opts.OnExit
		opts.OnExit = func(mh core.MHID) {
			base(mh)
			// Move to the ring successor of the current cell and request
			// again, racing the token.
			at, status := sys.Where(mh)
			if status != core.StatusConnected {
				return
			}
			next := core.MSSID((int(at) + 1) % m)
			if err := sys.Move(mh, next); err != nil {
				t.Errorf("Move: %v", err)
			}
			sys.Schedule(1, func() {
				if err := r2.Request(mh); err != nil {
					t.Errorf("re-Request: %v", err)
				}
			})
		}
		var err error
		r2, err = NewR2(sys, variant, opts, 6, nil)
		if err != nil {
			t.Fatalf("NewR2: %v", err)
		}
		if err := r2.Request(core.MHID(0)); err != nil {
			t.Fatalf("Request: %v", err)
		}
		sys.Schedule(50, func() {
			if err := r2.Start(); err != nil {
				t.Errorf("Start: %v", err)
			}
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r2.GrantsPerTraversal()
	}

	plain := run(VariantPlain)
	counter := run(VariantCounter)
	var plainMax, counterMax int64
	for _, g := range plain {
		if g > plainMax {
			plainMax = g
		}
	}
	for _, g := range counter {
		if g > counterMax {
			counterMax = g
		}
	}
	if counterMax > 1 {
		t.Errorf("R2' granted %d accesses to one MH in a traversal, want <= 1 (per-traversal: %v)", counterMax, counter)
	}
	if plainMax <= 1 {
		t.Logf("note: R2 did not exhibit multi-access in this trace (per-traversal: %v)", plain)
	}
}

func TestR2ListBlocksMaliciousMH(t *testing.T) {
	const (
		m = 4
		n = 4
	)
	run := func(variant Variant) []int64 {
		sys := newTestSystem(t, m, n)
		mon := &monitor{t: t}
		opts := mon.options(2)
		var r2 *R2
		base := opts.OnExit
		opts.OnExit = func(mh core.MHID) {
			base(mh)
			at, status := sys.Where(mh)
			if status != core.StatusConnected {
				return
			}
			next := core.MSSID((int(at) + 1) % m)
			if err := sys.Move(mh, next); err != nil {
				t.Errorf("Move: %v", err)
			}
			sys.Schedule(1, func() {
				if err := r2.Request(mh); err != nil {
					t.Errorf("re-Request: %v", err)
				}
			})
		}
		lie := func(mh core.MHID) bool { return mh == 0 }
		var err error
		r2, err = NewR2(sys, variant, opts, 6, lie)
		if err != nil {
			t.Fatalf("NewR2: %v", err)
		}
		if err := r2.Request(core.MHID(0)); err != nil {
			t.Fatalf("Request: %v", err)
		}
		sys.Schedule(50, func() {
			if err := r2.Start(); err != nil {
				t.Errorf("Start: %v", err)
			}
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r2.GrantsPerTraversal()
	}

	counter := run(VariantCounter)
	list := run(VariantList)
	var counterMax, listMax int64
	for _, g := range counter {
		if g > counterMax {
			counterMax = g
		}
	}
	for _, g := range list {
		if g > listMax {
			listMax = g
		}
	}
	if listMax > 1 {
		t.Errorf("R2'' granted a lying MH %d accesses in one traversal, want <= 1 (%v)", listMax, list)
	}
	if counterMax <= 1 {
		t.Logf("note: lying MH did not exceed one access under R2' in this trace (%v)", counter)
	}
}

func TestR2DisconnectedRequesterIsSkipped(t *testing.T) {
	sys := newTestSystem(t, 3, 6)
	mon := &monitor{t: t}
	r2, err := NewR2(sys, VariantPlain, mon.options(2), 1, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	// mh0 and mh3 (both in cell 0) request; mh0 disconnects before the
	// token starts. mh3 must still be granted.
	if err := r2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := r2.Request(core.MHID(3)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	sys.Schedule(20, func() {
		if err := sys.Disconnect(core.MHID(0)); err != nil {
			t.Errorf("Disconnect: %v", err)
		}
	})
	sys.Schedule(100, func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r2.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
	if len(mon.entries) != 1 || mon.entries[0] != 3 {
		t.Errorf("entries = %v, want [3]", mon.entries)
	}
	if got := r2.Traversals(); got != 1 {
		t.Errorf("traversals = %d, want 1 (ring must not stall)", got)
	}
}

func TestR1StallsOnDisconnectWithoutRepair(t *testing.T) {
	sys := newTestSystem(t, 3, 5)
	mon := &monitor{t: t}
	r1, err := NewR1(sys, core.AllMHs(5), mon.options(2), false, 3)
	if err != nil {
		t.Fatalf("NewR1: %v", err)
	}
	if err := sys.Disconnect(core.MHID(2)); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(50, func() {
		if err := r1.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !r1.Stalled() {
		t.Error("ring did not stall on disconnected member")
	}
	if got := r1.Traversals(); got != 0 {
		t.Errorf("traversals = %d, want 0", got)
	}
}

func TestR1RepairSkipsDisconnectedMember(t *testing.T) {
	sys := newTestSystem(t, 3, 5)
	mon := &monitor{t: t}
	r1, err := NewR1(sys, core.AllMHs(5), mon.options(2), true, 2)
	if err != nil {
		t.Fatalf("NewR1: %v", err)
	}
	if err := sys.Disconnect(core.MHID(2)); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if err := r1.Request(core.MHID(4)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	sys.Schedule(50, func() {
		if err := r1.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Stalled() {
		t.Error("ring stalled despite repair")
	}
	if got := r1.Traversals(); got != 2 {
		t.Errorf("traversals = %d, want 2", got)
	}
	if got := r1.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
}

func TestR1InterruptsDozingMHs(t *testing.T) {
	sys := newTestSystem(t, 3, 6)
	mon := &monitor{t: t}
	r1, err := NewR1(sys, core.AllMHs(6), mon.options(1), false, 1)
	if err != nil {
		t.Fatalf("NewR1: %v", err)
	}
	for i := 1; i < 6; i++ {
		sys.SetDoze(core.MHID(i), true)
	}
	if err := r1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every dozing MH is interrupted by the token even with no requests.
	if got := sys.Stats().DozeInterruptions; got != 5 {
		t.Errorf("doze interruptions = %d, want 5", got)
	}
}

func TestR2DoesNotInterruptDozingNonRequesters(t *testing.T) {
	sys := newTestSystem(t, 3, 6)
	mon := &monitor{t: t}
	r2, err := NewR2(sys, VariantCounter, mon.options(1), 1, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	for i := 1; i < 6; i++ {
		sys.SetDoze(core.MHID(i), true)
	}
	// Only mh2 (dozing) requested; only it may be interrupted.
	if err := r2.Request(core.MHID(2)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	sys.Schedule(50, func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := sys.Stats()
	if stats.DozeInterruptions != 1 || stats.DozeInterruptionsByMH[core.MHID(2)] != 1 {
		t.Errorf("doze interruptions = %d (by mh2: %d), want exactly 1 at mh2",
			stats.DozeInterruptions, stats.DozeInterruptionsByMH[core.MHID(2)])
	}
}

func TestR2MovingRequesterIsFoundBySearch(t *testing.T) {
	sys := newTestSystem(t, 4, 8)
	mon := &monitor{t: t}
	r2, err := NewR2(sys, VariantCounter, mon.options(2), 1, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	if err := r2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	// Move the requester far from its request's MSS before the token runs.
	sys.Schedule(10, func() {
		if err := sys.Move(core.MHID(0), core.MSSID(3)); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	sys.Schedule(200, func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r2.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
}

func TestR2TokenReturnAfterReconnect(t *testing.T) {
	sys := newTestSystem(t, 3, 4)
	mon := &monitor{t: t}
	opts := mon.options(30)
	base := opts.OnEnter
	opts.OnEnter = func(mh core.MHID) {
		base(mh)
		// Disconnect while holding the token; reconnect later.
		sys.Schedule(5, func() {
			if err := sys.Disconnect(mh); err != nil {
				t.Errorf("Disconnect: %v", err)
			}
		})
		sys.Schedule(300, func() {
			if err := sys.Reconnect(mh, core.MSSID(1), true); err != nil {
				t.Errorf("Reconnect: %v", err)
			}
		})
	}
	r2, err := NewR2(sys, VariantPlain, opts, 1, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	if err := r2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	sys.Schedule(50, func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r2.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
	if got := r2.Traversals(); got != 1 {
		t.Errorf("traversals = %d, want 1 (token must come back)", got)
	}
}

package lamport

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// monitor tracks critical-section occupancy to verify mutual exclusion.
type monitor struct {
	t       *testing.T
	holders int
	maxHeld int
	entries []core.MHID
}

func (m *monitor) options(hold sim.Time) Options {
	return Options{
		Hold: hold,
		OnEnter: func(mh core.MHID) {
			m.holders++
			m.entries = append(m.entries, mh)
			if m.holders > m.maxHeld {
				m.maxHeld = m.holders
			}
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

func TestL2SingleRequestCostMatchesAnalytic(t *testing.T) {
	const (
		m = 5
		n = 12
	)
	sys := newTestSystem(t, m, n)
	mon := &monitor{t: t}
	l2 := NewL2(sys, mon.options(10))

	if err := l2.Request(core.MHID(3)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got := l2.Grants(); got != 1 {
		t.Fatalf("grants = %d, want 1", got)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticL2PerExecution(m, p)
	if got != want {
		t.Errorf("L2 algorithm cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
	if wl := sys.Meter().Count(cost.CatAlgorithm, cost.KindWireless); wl != cost.AnalyticL2WirelessPerExecution() {
		t.Errorf("L2 wireless messages = %d, want %d", wl, cost.AnalyticL2WirelessPerExecution())
	}
}

func TestL1SingleRequestCostMatchesAnalytic(t *testing.T) {
	const (
		m = 4
		n = 9
	)
	sys := newTestSystem(t, m, n)
	mon := &monitor{t: t}
	l1, err := NewL1(sys, core.AllMHs(n), mon.options(10))
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}

	if err := l1.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got := l1.Grants(); got != 1 {
		t.Fatalf("grants = %d, want 1", got)
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticL1PerExecution(n, p)
	if got != want {
		t.Errorf("L1 algorithm cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
	tx, rx := sys.Meter().TotalEnergy()
	if tx+rx != cost.AnalyticL1WirelessPerExecution(n) {
		t.Errorf("L1 wireless energy = %d, want %d", tx+rx, cost.AnalyticL1WirelessPerExecution(n))
	}
}

func TestL2ConcurrentRequestsSafetyAndLiveness(t *testing.T) {
	const (
		m = 4
		n = 20
	)
	sys := newTestSystem(t, m, n)
	mon := &monitor{t: t}
	l2 := NewL2(sys, mon.options(7))

	for i := 0; i < n; i++ {
		mh := core.MHID(i)
		sys.Schedule(sim.Time(i%5), func() {
			if err := l2.Request(mh); err != nil {
				t.Errorf("Request(mh%d): %v", int(mh), err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l2.Grants(); got != n {
		t.Errorf("grants = %d, want %d", got, n)
	}
	if len(mon.entries) != n {
		t.Errorf("entries = %d, want %d", len(mon.entries), n)
	}
	if mon.holders != 0 {
		t.Errorf("holders = %d after quiescence, want 0", mon.holders)
	}
}

func TestL1ConcurrentRequestsSafetyAndLiveness(t *testing.T) {
	const (
		m = 3
		n = 8
	)
	sys := newTestSystem(t, m, n)
	mon := &monitor{t: t}
	l1, err := NewL1(sys, core.AllMHs(n), mon.options(5))
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}

	for i := 0; i < n; i++ {
		mh := core.MHID(i)
		sys.Schedule(sim.Time(i%3), func() {
			if err := l1.Request(mh); err != nil {
				t.Errorf("Request(mh%d): %v", int(mh), err)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l1.Grants(); got != n {
		t.Errorf("grants = %d, want %d", got, n)
	}
}

func TestL2RequesterMovesBeforeGrant(t *testing.T) {
	sys := newTestSystem(t, 5, 10)
	mon := &monitor{t: t}
	l2 := NewL2(sys, mon.options(5))

	if err := l2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	// Move the requester across two cells while the request is in flight.
	sys.Schedule(1, func() {
		if err := sys.Move(core.MHID(0), core.MSSID(3)); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l2.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
	if at, status := sys.Where(core.MHID(0)); at != 3 || status != core.StatusConnected {
		t.Errorf("mh0 at mss%d status %v, want mss3 connected", int(at), status)
	}
}

func TestL2DisconnectBeforeGrantReleasesRequest(t *testing.T) {
	sys := newTestSystem(t, 4, 6)
	mon := &monitor{t: t}
	l2 := NewL2(sys, mon.options(5))

	// mh0 requests then immediately disconnects; mh1 requests later and must
	// still be granted.
	if err := l2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	sys.Schedule(1, func() {
		if err := sys.Disconnect(core.MHID(0)); err != nil {
			t.Errorf("Disconnect: %v", err)
		}
	})
	sys.Schedule(2, func() {
		if err := l2.Request(core.MHID(1)); err != nil {
			t.Errorf("Request(mh1): %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l2.FailedGrants(); got != 1 {
		t.Errorf("failed grants = %d, want 1", got)
	}
	if got := l2.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1 (mh1)", got)
	}
	if len(mon.entries) != 1 || mon.entries[0] != 1 {
		t.Errorf("entries = %v, want [1]", mon.entries)
	}
}

func TestL2DisconnectInsideCSReleasesAfterReconnect(t *testing.T) {
	sys := newTestSystem(t, 4, 6)
	mon := &monitor{t: t}
	opts := mon.options(50)
	var entered sim.Time
	prevEnter := opts.OnEnter
	opts.OnEnter = func(mh core.MHID) {
		prevEnter(mh)
		entered = sys.Now()
		_ = entered
		if mh == 0 {
			// Disconnect while holding the critical section.
			sys.Schedule(10, func() {
				if err := sys.Disconnect(core.MHID(0)); err != nil {
					t.Errorf("Disconnect: %v", err)
				}
			})
			// Reconnect (at a different cell, knowing the previous MSS)
			// well after the hold expires.
			sys.Schedule(200, func() {
				if err := sys.Reconnect(core.MHID(0), core.MSSID(2), true); err != nil {
					t.Errorf("Reconnect: %v", err)
				}
			})
		}
	}
	l2 := NewL2(sys, opts)

	if err := l2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	// A second requester must eventually be granted once mh0 reconnects and
	// its release-resource reaches the home MSS.
	sys.Schedule(5, func() {
		if err := l2.Request(core.MHID(1)); err != nil {
			t.Errorf("Request(mh1): %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l2.Grants(); got != 2 {
		t.Errorf("grants = %d, want 2", got)
	}
}

func TestL1BlocksWhenParticipantDisconnects(t *testing.T) {
	sys := newTestSystem(t, 3, 5)
	mon := &monitor{t: t}
	l1, err := NewL1(sys, core.AllMHs(5), mon.options(5))
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}

	// mh4 disconnects; a later request by mh0 can never complete because
	// mh4 will never reply (the paper: L1 does not provide for
	// disconnection).
	if err := sys.Disconnect(core.MHID(4)); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(10, func() {
		if err := l1.Request(core.MHID(0)); err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l1.Grants(); got != 0 {
		t.Errorf("grants = %d, want 0 (stalled)", got)
	}
}

func TestL1RequestWhileMovingIsDeferred(t *testing.T) {
	sys := newTestSystem(t, 3, 4)
	mon := &monitor{t: t}
	l1, err := NewL1(sys, core.AllMHs(4), mon.options(5))
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}
	if err := sys.Move(core.MHID(0), core.MSSID(2)); err != nil {
		t.Fatalf("Move: %v", err)
	}
	// Request issued while mh0 is in transit: protocol messages defer until
	// it joins the new cell, then the request completes.
	sys.Schedule(1, func() {
		if err := l1.Request(core.MHID(0)); err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l1.Grants(); got != 1 {
		t.Errorf("grants = %d, want 1", got)
	}
}

func TestL2RepeatedRequestsFromSameMH(t *testing.T) {
	sys := newTestSystem(t, 3, 3)
	mon := &monitor{t: t}
	opts := mon.options(5)
	var l2 *L2
	var rounds int
	base := opts.OnExit
	opts.OnExit = func(mh core.MHID) {
		base(mh)
		if rounds < 4 {
			rounds++
			sys.Schedule(1, func() {
				if err := l2.Request(mh); err != nil {
					t.Errorf("re-Request: %v", err)
				}
			})
		}
	}
	l2 = NewL2(sys, opts)

	if err := l2.Request(core.MHID(2)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l2.Grants(); got != 5 {
		t.Errorf("grants = %d, want 5", got)
	}
}

func TestL2DuplicateRequestRejected(t *testing.T) {
	sys := newTestSystem(t, 3, 3)
	l2 := NewL2(sys, Options{Hold: 1000})
	if err := l2.Request(core.MHID(0)); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := l2.Request(core.MHID(0)); err == nil {
		t.Error("duplicate Request succeeded, want error")
	}
}

func TestL1NonParticipantRejected(t *testing.T) {
	sys := newTestSystem(t, 3, 6)
	l1, err := NewL1(sys, core.AllMHs(3), Options{Hold: 1})
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}
	if err := l1.Request(core.MHID(5)); err == nil {
		t.Error("Request by non-participant succeeded, want error")
	}
}

package rt

import (
	"sync"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/group"
	"mobiledist/internal/mutex/lamport"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/proxy"
)

const idleTimeout = 10 * time.Second

// safetyMonitor checks mutual exclusion from handler context (executor
// goroutine), with a mutex so tests can read final values safely.
type safetyMonitor struct {
	mu      sync.Mutex
	t       *testing.T
	holders int
	grants  int
}

func (m *safetyMonitor) enter(mh core.MHID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.holders++
	m.grants++
	if m.holders > 1 {
		m.t.Errorf("mutual exclusion violated at mh%d", int(mh))
	}
}

func (m *safetyMonitor) exit(core.MHID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.holders--
}

func (m *safetyMonitor) totals() (grants, holders int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grants, m.holders
}

func TestLiveL2WithConcurrentMobility(t *testing.T) {
	const (
		m = 4
		n = 12
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mon := &safetyMonitor{t: t}
	l2 := lamport.NewL2(sys, lamport.Options{Hold: 3, OnEnter: mon.enter, OnExit: mon.exit})
	sys.Start()
	defer sys.Stop()

	// Drive requests from the main goroutine and moves from another,
	// exercising the executor under the race detector.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			mh := core.MHID(i)
			sys.Do(func() {
				if err := l2.Request(mh); err != nil {
					t.Errorf("Request: %v", err)
				}
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			sys.Move(core.MHID(i), core.MSSID((i+1)%m))
			time.Sleep(150 * time.Microsecond)
		}
	}()
	wg.Wait()

	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	grants, holders := mon.totals()
	if grants != n {
		t.Errorf("grants = %d, want %d", grants, n)
	}
	if holders != 0 {
		t.Errorf("holders = %d after drain, want 0", holders)
	}
	if got := l2.Grants(); got != int64(n) {
		t.Errorf("l2.Grants = %d, want %d", got, n)
	}
}

func TestLiveR2TokenRing(t *testing.T) {
	const (
		m = 4
		n = 10
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mon := &safetyMonitor{t: t}
	r2, err := ring.NewR2(sys, ring.VariantCounter, ring.Options{Hold: 2, OnEnter: mon.enter, OnExit: mon.exit}, 3, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	sys.Do(func() {
		for i := 0; i < 5; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
	})
	time.Sleep(2 * time.Millisecond)
	sys.Do(func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})

	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	grants, _ := mon.totals()
	if grants != 5 {
		t.Errorf("grants = %d, want 5", grants)
	}
	sys.Do(func() {
		if got := r2.Traversals(); got != 3 {
			t.Errorf("traversals = %d, want 3", got)
		}
	})
}

func TestLiveLocationViewGroup(t *testing.T) {
	const (
		m = 5
		n = 10
		g = 6
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var mu sync.Mutex
	delivered := make(map[core.MHID]int)
	lv, err := group.NewLocationView(sys, core.AllMHs(g), group.LocationViewOptions{
		Options: group.Options{OnDeliver: func(at, from core.MHID, payload any) {
			mu.Lock()
			delivered[at]++
			mu.Unlock()
		}},
		Coordinator:   core.MSSID(m - 1),
		CombineWindow: 10,
	})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	// Move a member to a fresh cell (a significant move), wait for the
	// view to settle, then send a group message.
	sys.Move(core.MHID(0), core.MSSID(4))
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("view did not settle")
	}
	sys.Do(func() {
		if err := lv.Send(core.MHID(1), "hello"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if total := len(delivered); total != g-1 {
		t.Errorf("distinct recipients = %d, want %d (map: %v)", total, g-1, delivered)
	}
	sys.Do(func() {
		if got := lv.Delivered(); got != int64(g-1) {
			t.Errorf("delivered = %d, want %d", got, g-1)
		}
	})
}

func TestLiveProxyStaticMutex(t *testing.T) {
	const (
		m = 3
		n = 6
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var mu sync.Mutex
	var holders, grants int
	sm, err := proxy.NewStaticMutex(n, proxy.MutexOptions{
		Hold: 2,
		OnEnter: func(p int) {
			mu.Lock()
			holders++
			grants++
			if holders > 1 {
				t.Errorf("mutual exclusion violated at proc %d", p)
			}
			mu.Unlock()
		},
		OnExit: func(p int) {
			mu.Lock()
			holders--
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewStaticMutex: %v", err)
	}
	rt, err := proxy.New(sys, sm, core.AllMHs(n), proxy.Options{Scope: proxy.ScopeHome})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	for i := 0; i < n; i++ {
		mh := core.MHID(i)
		sys.Do(func() {
			if err := rt.Input(mh, proxy.RequestInput{}); err != nil {
				t.Errorf("Input: %v", err)
			}
		})
	}
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if grants != n {
		t.Errorf("grants = %d, want %d", grants, n)
	}
}

func TestLiveDisconnectReconnect(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(3, 4))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mon := &safetyMonitor{t: t}
	l2 := lamport.NewL2(sys, lamport.Options{Hold: 2, OnEnter: mon.enter, OnExit: mon.exit})
	sys.Start()
	defer sys.Stop()

	// mh0 requests then disconnects before the grant can be delivered; L2
	// must abort it and still serve mh1.
	sys.Do(func() {
		if err := l2.Request(core.MHID(0)); err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	sys.Disconnect(core.MHID(0))
	sys.Do(func() {
		if err := l2.Request(core.MHID(1)); err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	sys.Do(func() {
		if l2.Grants()+l2.FailedGrants() != 2 {
			t.Errorf("grants=%d failed=%d, want total 2", l2.Grants(), l2.FailedGrants())
		}
		if l2.Grants() < 1 {
			t.Errorf("grants = %d, want >= 1 (mh1 must be served)", l2.Grants())
		}
	})

	// Reconnect mh0 elsewhere; it must be able to request again if its
	// first request was aborted.
	sys.Reconnect(core.MHID(0), core.MSSID(2))
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("reconnect did not settle")
	}
	sys.Do(func() {
		if at, st := sys.Where(core.MHID(0)); st != core.StatusConnected || at != 2 {
			t.Errorf("mh0 at mss%d (%v), want mss2 connected", int(at), st)
		}
	})
}

func TestLiveCostAccountingMatchesSimulatorShape(t *testing.T) {
	// One L2 execution on the live runtime must charge exactly the same
	// message counts as the simulator (latencies differ, counts cannot).
	sys, err := NewSystem(DefaultConfig(5, 12))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	l2 := lamport.NewL2(sys, lamport.Options{Hold: 2})
	sys.Start()
	defer sys.Stop()
	sys.Do(func() {
		if err := l2.Request(core.MHID(3)); err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	p := sys.Config().Params
	got := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	want := cost.AnalyticL2PerExecution(5, p)
	if got != want {
		t.Errorf("live L2 cost = %v, want analytic %v\n%s", got, want, sys.Meter().Report(p))
	}
}

func TestLiveConfigValidation(t *testing.T) {
	bad := DefaultConfig(3, 3)
	bad.Wired = core.Delay{Min: 5, Max: 1}
	if _, err := NewSystem(bad); err == nil {
		t.Error("invalid wired delay accepted")
	}
	var zero Config
	zero.N = 1
	if _, err := NewSystem(zero); err == nil {
		t.Error("M=0 accepted")
	}
	worse := DefaultConfig(2, 2)
	worse.Params.Search = 0
	if _, err := NewSystem(worse); err == nil {
		t.Error("invalid params accepted")
	}
	placed := DefaultConfig(2, 2)
	placed.Placement = func(core.MHID) core.MSSID { return 9 }
	if _, err := NewSystem(placed); err == nil {
		t.Error("out-of-range placement accepted")
	}
}

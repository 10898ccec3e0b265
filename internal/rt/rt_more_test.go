package rt

import (
	"sync"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/group"
	"mobiledist/internal/multicast"
	"mobiledist/internal/mutex/lamport"
	"mobiledist/internal/mutex/ring"
)

func TestLiveMulticastExactlyOnceUnderMobility(t *testing.T) {
	const (
		m = 4
		n = 6
		g = 4
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var mu sync.Mutex
	got := make(map[core.MHID][]int64)
	mc, err := multicast.New(sys, core.AllMHs(g), multicast.Options{
		Sequencer: core.MSSID(m - 1),
		OnDeliver: func(at core.MHID, seq int64, payload any) {
			mu.Lock()
			got[at] = append(got[at], seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("multicast.New: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	const items = 5
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			item := i
			sys.Do(func() {
				if err := mc.Publish(core.MHID(0), item); err != nil {
					t.Errorf("Publish: %v", err)
				}
			})
			time.Sleep(400 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			sys.Move(core.MHID(i%g), core.MSSID((i+1)%m))
			time.Sleep(300 * time.Microsecond)
		}
	}()
	wg.Wait()
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < g; i++ {
		seqs := got[core.MHID(i)]
		if len(seqs) != items {
			t.Errorf("mh%d received %d items, want %d (%v)", i, len(seqs), items, seqs)
			continue
		}
		for j, s := range seqs {
			if s != int64(j) {
				t.Errorf("mh%d out of order: %v", i, seqs)
				break
			}
		}
	}
}

func TestLiveR1TokenRing(t *testing.T) {
	const (
		m = 3
		n = 6
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mon := &safetyMonitor{t: t}
	r1, err := ring.NewR1(sys, core.AllMHs(n), ring.Options{Hold: 2, OnEnter: mon.enter, OnExit: mon.exit}, false, 2)
	if err != nil {
		t.Fatalf("NewR1: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	sys.Do(func() {
		for _, mh := range []core.MHID{1, 4} {
			if err := r1.Request(mh); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
		if err := r1.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	grants, _ := mon.totals()
	if grants != 2 {
		t.Errorf("grants = %d, want 2", grants)
	}
	sys.Do(func() {
		if got := r1.Traversals(); got != 2 {
			t.Errorf("traversals = %d, want 2", got)
		}
	})
}

func TestLivePairFIFO(t *testing.T) {
	// A stream of MH-to-MH messages must arrive in order on the live
	// runtime even while the destination moves.
	const (
		m = 4
		n = 2
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var mu sync.Mutex
	var got []int
	l1probe := &fifoProbe{onMsg: func(v int) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	}}
	ctx := sys.Register(l1probe)
	sys.Start()
	defer sys.Stop()

	const msgs = 15
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			v := i
			sys.Do(func() {
				if err := ctx.SendMHToMH(0, 1, v, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			})
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			sys.Move(core.MHID(1), core.MSSID((i+1)%m))
			time.Sleep(350 * time.Microsecond)
		}
	}()
	wg.Wait()
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != msgs {
		t.Fatalf("received %d messages, want %d", len(got), msgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("pair FIFO violated: %v", got)
		}
	}
}

// fifoProbe receives MH messages carrying ints.
type fifoProbe struct {
	onMsg func(int)
}

func (p *fifoProbe) Name() string { return "fifo-probe" }

func (p *fifoProbe) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	v, ok := msg.(int)
	if !ok {
		panic("fifoProbe: unexpected message")
	}
	p.onMsg(v)
}

func TestLiveAlwaysInformGroup(t *testing.T) {
	const (
		m = 4
		n = 6
		g = 4
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var mu sync.Mutex
	delivered := 0
	ai, err := group.NewAlwaysInform(sys, core.AllMHs(g), group.Options{
		OnDeliver: func(core.MHID, core.MHID, any) {
			mu.Lock()
			delivered++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewAlwaysInform: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	// Move a member (location updates flow), settle, then send.
	sys.Move(core.MHID(2), core.MSSID(3))
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("updates did not settle")
	}
	sys.Do(func() {
		if err := ai.Send(core.MHID(0), "live"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != g-1 {
		t.Errorf("delivered = %d, want %d", delivered, g-1)
	}
	sys.Do(func() {
		dir, err := ai.Directory(core.MHID(0))
		if err != nil {
			t.Errorf("Directory: %v", err)
			return
		}
		if dir[core.MHID(2)] != core.MSSID(3) {
			t.Errorf("directory has mh2 at mss%d, want mss3", int(dir[core.MHID(2)]))
		}
	})
}

func TestLiveL1DirectOnMHs(t *testing.T) {
	const (
		m = 3
		n = 5
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	mon := &safetyMonitor{t: t}
	l1, err := lamport.NewL1(sys, core.AllMHs(n), lamport.Options{Hold: 2, OnEnter: mon.enter, OnExit: mon.exit})
	if err != nil {
		t.Fatalf("NewL1: %v", err)
	}
	sys.Start()
	defer sys.Stop()

	for i := 0; i < n; i++ {
		mh := core.MHID(i)
		sys.Do(func() {
			if err := l1.Request(mh); err != nil {
				t.Errorf("Request: %v", err)
			}
		})
	}
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	grants, holders := mon.totals()
	if grants != n || holders != 0 {
		t.Errorf("grants = %d holders = %d, want %d/0", grants, holders, n)
	}
}

func TestLiveSearchChargesMatchPessimisticModel(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(4, 8))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p := &fifoProbe{onMsg: func(int) {}}
	ctx := sys.Register(p)
	sys.Start()
	defer sys.Stop()
	sys.Do(func() {
		ctx.SendToMH(0, 0, 1, cost.CatAlgorithm) // local, pessimistic search
		ctx.SendToMH(0, 5, 2, cost.CatAlgorithm) // remote
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch); got != 2 {
		t.Errorf("searches = %d, want 2", got)
	}
	if got := sys.Searches(); got != 2 {
		t.Errorf("Searches() = %d, want 2", got)
	}
}

package rt

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/proxy"
)

// Runtime-specific behaviour tests. The cross-substrate conformance suite
// (cost parity with the simulator, mutual exclusion, FIFO and prefix
// delivery, mobility-state partitioning) lives in internal/conformance and
// runs this runtime side by side with internal/core.

func TestLiveProxyLocalScopeUsesSearchedInterProxyMessages(t *testing.T) {
	// The local-scope proxy routes inter-process messages with
	// SendToMSSOfMH; this exercises that path on the live runtime.
	const (
		m = 3
		n = 4
	)
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sm, err := proxy.NewStaticMutex(n, proxy.MutexOptions{Hold: 2})
	if err != nil {
		t.Fatalf("NewStaticMutex: %v", err)
	}
	rt, err := proxy.New(sys, sm, core.AllMHs(n), proxy.Options{Scope: proxy.ScopeLocal})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	sys.Start()
	defer sys.Stop()
	sys.Do(func() {
		if err := rt.Input(core.MHID(0), proxy.RequestInput{}); err != nil {
			t.Errorf("Input: %v", err)
		}
	})
	// Move a peer mid-arbitration so the searched routing has to chase.
	sys.Move(core.MHID(2), core.MSSID(1))
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	if sm.Grants() != 1 {
		t.Errorf("grants = %d, want 1", sm.Grants())
	}
	if sys.Searches() == 0 {
		t.Error("local scope performed no searches")
	}
}

func TestLiveBroadcastFixedAndAccessors(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(4, 4))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var got int
	p := &bcastProbe{onMSS: func() { got++ }}
	ctx := sys.Register(p)
	if ctx.M() != 4 || ctx.N() != 4 {
		t.Error("M/N accessors wrong")
	}
	if err := ctx.Params().Validate(); err != nil {
		t.Errorf("Params: %v", err)
	}
	if ctx.RNG() == nil {
		t.Error("nil RNG")
	}
	sys.Start()
	defer sys.Stop()
	sys.Do(func() {
		ctx.BroadcastFixed(0, "all", cost.CatControl)
		if !ctx.IsLocal(1, 1) {
			t.Error("IsLocal(1,1) = false")
		}
		if ctx.IsDisconnectedHere(0, 0) {
			t.Error("fresh MH marked disconnected")
		}
		if ctx.Now() < 0 {
			t.Error("negative Now")
		}
	})
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("network did not drain")
	}
	if got != 3 {
		t.Errorf("broadcast reached %d stations, want 3", got)
	}
}

type bcastProbe struct {
	onMSS func()
}

func (p *bcastProbe) Name() string { return "bcast-probe" }

func (p *bcastProbe) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {
	p.onMSS()
}

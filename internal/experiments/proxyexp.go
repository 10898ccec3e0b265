package experiments

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/proxy"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// proxyTrial runs the static mutex under the proxy framework with the given
// scope, issuing one request per participant and movesPerMH moves.
func proxyTrial(seed uint64, m, n, movesPerMH int, scope proxy.ScopeKind) (algCost, locCost float64, reports, handoffs, grants int64) {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	var holders int
	sm, err := proxy.NewStaticMutex(n, proxy.MutexOptions{
		Hold: 5,
		OnEnter: func(p int) {
			holders++
			if holders > 1 {
				panic("experiments: proxy mutex safety violated")
			}
		},
		OnExit: func(p int) { holders-- },
	})
	if err != nil {
		panic(err)
	}
	rt, err := proxy.New(sys, sm, core.AllMHs(n), proxy.Options{Scope: scope})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		mh := core.MHID(i)
		var issue func()
		issue = func() {
			if _, st := sys.Where(mh); st != core.StatusConnected {
				// Mid-move at the request instant: retry shortly.
				sys.Schedule(50, issue)
				return
			}
			if err := rt.Input(mh, proxy.RequestInput{}); err != nil {
				panic(err)
			}
		}
		sys.Schedule(sim.Time(100+i*200), issue)
	}
	if movesPerMH > 0 {
		if _, err := workload.NewMobility(sys, workload.MobilityConfig{
			Interval:   workload.Span{Min: 300, Max: 900},
			MovesPerMH: movesPerMH,
			Locality:   0.5,
			Start:      50,
		}); err != nil {
			panic(err)
		}
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	p := cfg.Params
	return sys.Meter().CategoryCost(cost.CatAlgorithm, p),
		sys.Meter().CategoryCost(cost.CatLocation, p),
		rt.MoveReports(), rt.Handoffs(), sm.Grants()
}

// E11ProxyTraffic reproduces the §5 trade-off: a fixed (home) proxy totally
// separates mobility from the algorithm but must be informed of every move;
// a local proxy avoids inform traffic at the price of handoffs and searched
// inter-proxy messages.
func E11ProxyTraffic(seed uint64) Table {
	const (
		m = 6
		n = 6
	)
	t := Table{
		ID:    "E11",
		Title: "Proxy framework: home vs local scope hosting a static Lamport mutex (M=6, 6 participants, 1 request each)",
		Columns: []string{
			"moves/MH", "home alg", "home inform", "home total", "local alg", "local handoff", "local total", "cheaper",
		},
	}
	for _, moves := range []int{0, 2, 5, 10} {
		hAlg, hLoc, hReports, _, hGrants := proxyTrial(seed, m, n, moves, proxy.ScopeHome)
		lAlg, lLoc, _, lHandoffs, lGrants := proxyTrial(seed, m, n, moves, proxy.ScopeLocal)
		if hGrants != int64(n) || lGrants != int64(n) {
			panic(fmt.Sprintf("experiments: proxy grants home=%d local=%d, want %d", hGrants, lGrants, n))
		}
		hTotal := hAlg + hLoc
		lTotal := lAlg + lLoc
		cheaper := "home"
		if lTotal < hTotal {
			cheaper = "local"
		}
		t.AddRow(moves, hAlg, hLoc, hTotal, lAlg, lLoc, lTotal, cheaper)
		_ = hReports
		_ = lHandoffs
	}
	t.AddNote("home scope: algorithm cost is mobility-independent (total separation); inform traffic grows with every move")
	t.AddNote("local scope: no inform traffic, but inter-proxy messages must locate their peer (search) and each move hands proxy state over")
	return t
}

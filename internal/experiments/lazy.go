package experiments

import (
	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/proxy"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// A3LazyInform explores the paper's closing observation in Section 5: a
// home proxy informed of every move is "infeasible from a practical
// standpoint" for fast movers. Lazy informing reports only every k-th move,
// trading inform traffic for stale-location searches when the proxy
// delivers an output. The sweep shows the trade-off and where laziness
// pays.
func A3LazyInform(seed uint64) Table {
	const (
		m       = 8
		n       = 8
		movesEa = 8
	)
	t := Table{
		ID:    "A3",
		Title: "Ablation: lazy home-proxy informing (report every k-th move; M=8, 8 participants, 8 moves each)",
		Columns: []string{
			"inform every", "inform msgs", "inform cost", "stale searches", "stale cost", "total coupling",
		},
	}
	for _, k := range []int{1, 2, 4, 8} {
		informCost, staleCost, reports, staleSearches := lazyTrial(seed, m, n, movesEa, k)
		t.AddRow(k, reports, informCost, staleSearches, staleCost, informCost+staleCost)
	}
	t.AddNote("k=1 is the paper's fully-informed home proxy; larger k cuts inform traffic linearly but outputs to stale locations fall back to searches")
	return t
}

func lazyTrial(seed uint64, m, n, movesEa, informEvery int) (informCost, staleCost float64, reports, staleSearches int64) {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	sm, err := proxy.NewStaticMutex(n, proxy.MutexOptions{Hold: 5})
	if err != nil {
		panic(err)
	}
	rt, err := proxy.New(sys, sm, core.AllMHs(n), proxy.Options{
		Scope:       proxy.ScopeHome,
		InformEvery: informEvery,
	})
	if err != nil {
		panic(err)
	}
	if _, err := workload.NewMobility(sys, workload.MobilityConfig{
		Interval:   workload.Span{Min: 200, Max: 700},
		MovesPerMH: movesEa,
		Locality:   0.3,
		Start:      50,
	}); err != nil {
		panic(err)
	}
	// Requests arrive throughout the mobile phase so outputs hit both
	// fresh and stale location records.
	for i := 0; i < n; i++ {
		mh := core.MHID(i)
		sys.Schedule(sim.Time(300+i*600), func() {
			if _, st := sys.Where(mh); st != core.StatusConnected {
				return
			}
			_ = rt.Input(mh, proxy.RequestInput{})
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	p := cfg.Params
	return sys.Meter().CategoryCost(cost.CatLocation, p),
		sys.Meter().CategoryCost(cost.CatStale, p),
		rt.MoveReports(),
		sys.Meter().Count(cost.CatStale, cost.KindSearch)
}

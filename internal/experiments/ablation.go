package experiments

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/lamport"
)

// A1SearchModes compares the abstract fixed-Csearch charge against a
// concrete broadcast search that queries every other MSS — the paper's
// worst case "contact each of the other M−1 MSSs" (Section 2).
func A1SearchModes(seed uint64) Table {
	t := Table{
		ID:      "A1",
		Title:   "Ablation: abstract Csearch vs broadcast search, one L2 execution",
		Columns: []string{"M", "abstract cost", "broadcast cost", "broadcast search msgs", "Csearch charged"},
	}
	for _, m := range []int{4, 8, 16, 32} {
		abstract := searchModeTrial(seed, m, core.SearchAbstract)
		broadcast := searchModeTrial(seed, m, core.SearchBroadcast)
		// One search occurs per execution (the grant delivery); under
		// broadcast it becomes (M-1) queries + reply + forward fixed
		// messages.
		t.AddRow(m, abstract, broadcast, m+1, cost.DefaultParams().Search)
	}
	t.AddNote("the abstract mode is paper-faithful; broadcast shows where Csearch <= (M-1)Cf + O(1) comes from and why Csearch grows with M in the worst case")
	return t
}

func searchModeTrial(seed uint64, m int, mode core.SearchMode) float64 {
	cfg := core.DefaultConfig(m, 2*m)
	cfg.Seed = seed
	cfg.SearchMode = mode
	sys := core.MustNewSystem(cfg)
	l2 := lamport.NewL2(sys, lamport.Options{Hold: 5})
	if err := l2.Request(core.MHID(0)); err != nil {
		panic(err)
	}
	// Move the requester away from its home MSS while the request is being
	// arbitrated, so delivering the grant genuinely requires a search.
	sys.Schedule(1, func() {
		if err := sys.Move(core.MHID(0), core.MSSID(m-1)); err != nil {
			panic(err)
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	if l2.Grants() != 1 {
		panic("experiments: A1 trial did not grant")
	}
	return sys.Meter().CategoryCost(cost.CatAlgorithm, cfg.Params)
}

// A2Crossover maps where restructuring pays off: for cheap wireless links
// and small N, running Lamport directly on the MHs (L1) can undercut L2's
// fixed 3(M−1)Cf exchange; the crossover N shrinks as wireless gets more
// expensive.
func A2Crossover(seed uint64) Table {
	const (
		m      = 16
		maxN   = 64
		search = 2.0
		fixed  = 1.0
	)
	t := Table{
		ID:      "A2",
		Title:   "Ablation: smallest N at which L2 beats L1 as the wireless/fixed cost ratio varies (M=16, Cs=2Cf)",
		Columns: []string{"Cw/Cf", "crossover N", "L1 cost there", "L2 cost there", "measured agrees"},
	}
	for _, w := range []float64{0.2, 1, 5, 10} {
		p := cost.Params{Fixed: fixed, Wireless: w * fixed, Search: search * fixed}
		crossover := -1
		for n := 2; n <= maxN; n++ {
			if cost.AnalyticL2PerExecution(m, p) < cost.AnalyticL1PerExecution(n, p) {
				crossover = n
				break
			}
		}
		if crossover < 0 {
			t.AddRow(fmt.Sprintf("%.1f", w), "none <= 64", "-", "-", "-")
			continue
		}
		l1 := measuredLamportCost(seed, m, crossover, p, true)
		l2 := measuredLamportCost(seed, m, crossover, p, false)
		agrees := l2 < l1
		t.AddRow(
			fmt.Sprintf("%.1f", w),
			crossover,
			cost.AnalyticL1PerExecution(crossover, p),
			cost.AnalyticL2PerExecution(m, p),
			agrees,
		)
	}
	t.AddNote("with N >> M (the paper's regime) and wireless an order of magnitude dearer than wired, L2 wins from tiny N; the crossover only matters for unrealistically cheap wireless")
	return t
}

func measuredLamportCost(seed uint64, m, n int, p cost.Params, useL1 bool) float64 {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	cfg.Params = p
	sys := core.MustNewSystem(cfg)
	var issue func(core.MHID) error
	if useL1 {
		l1, err := lamport.NewL1(sys, core.AllMHs(n), lamport.Options{Hold: 5})
		if err != nil {
			panic(err)
		}
		issue = l1.Request
	} else {
		l2 := lamport.NewL2(sys, lamport.Options{Hold: 5})
		issue = l2.Request
	}
	if err := issue(core.MHID(0)); err != nil {
		panic(err)
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return sys.Meter().CategoryCost(cost.CatAlgorithm, p)
}

package experiments

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/lamport"
	"mobiledist/internal/sim"
)

// lamportExecCost runs reps sequential executions of the given mutual
// exclusion variant and returns the measured algorithm cost and wireless
// message count per execution.
func lamportExecCost(seed uint64, m, n, reps int, useL1 bool) (perExec float64, wirelessPerExec float64, energyPerExec float64) {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	issue := func(mh core.MHID) error { return nil }
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

	// Sequential executions from distinct requesters, spaced far enough
	// apart that each completes before the next begins.
	for i := 0; i < reps; i++ {
		mh := core.MHID(i % n)
		sys.Schedule(sim.Time(i)*10_000, func() {
			if err := issue(mh); err != nil {
				panic(fmt.Sprintf("experiments: request: %v", err))
			}
		})
	}
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("experiments: run: %v", err))
	}
	p := cfg.Params
	total := sys.Meter().CategoryCost(cost.CatAlgorithm, p)
	wireless := sys.Meter().Count(cost.CatAlgorithm, cost.KindWireless)
	tx, rx := sys.Meter().TotalEnergy()
	return total / float64(reps), float64(wireless) / float64(reps), float64(tx+rx) / float64(reps)
}

// E1LamportCostVsN reproduces the §3.1.1 comparison: L1's per-execution
// cost grows linearly in N while L2's is constant in N.
func E1LamportCostVsN(seed uint64) Table {
	const (
		m    = 8
		reps = 4
	)
	t := Table{
		ID:      "E1",
		Title:   "L1 vs L2: total cost per mutual-exclusion execution vs N (M=8)",
		Columns: []string{"N", "L1 paper", "L1 measured", "L2 paper", "L2 measured", "L2 advantage"},
	}
	p := cost.DefaultParams()
	for _, n := range []int{4, 8, 16, 32, 64} {
		l1, _, _ := lamportExecCost(seed, m, n, reps, true)
		l2, _, _ := lamportExecCost(seed, m, n, reps, false)
		t.AddRow(
			n,
			cost.AnalyticL1PerExecution(n, p),
			l1,
			cost.AnalyticL2PerExecution(m, p),
			l2,
			fmt.Sprintf("%.1fx", l1/l2),
		)
	}
	t.AddNote("paper: L1 = 3(N-1)(2Cw+Cs) grows with N; L2 = 3Cw+Cf+Cs+3(M-1)Cf is constant in N")
	return t
}

// E2LamportEnergy reproduces the §3.1.1 battery argument: L1 costs 6(N−1)
// wireless messages per execution across the MHs, L2 exactly 3.
func E2LamportEnergy(seed uint64) Table {
	const (
		m    = 8
		reps = 4
	)
	t := Table{
		ID:      "E2",
		Title:   "L1 vs L2: wireless messages (battery) per execution vs N (M=8)",
		Columns: []string{"N", "L1 paper", "L1 measured", "L2 paper", "L2 measured"},
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		_, _, e1 := lamportExecCost(seed, m, n, reps, true)
		_, _, e2 := lamportExecCost(seed, m, n, reps, false)
		t.AddRow(
			n,
			cost.AnalyticL1WirelessPerExecution(n),
			e1,
			cost.AnalyticL2WirelessPerExecution(),
			e2,
		)
	}
	t.AddNote("energy counts wireless transmissions plus receptions at MHs; L2's 3 messages touch a MH endpoint 3 times (init tx, grant rx, release tx) plus nothing else")
	return t
}

// E3LamportDisconnect reproduces the §3.1.1 disconnection argument: L1
// provides no progress once any participant disconnects, while L2 is
// unaffected unless the requester itself is gone.
func E3LamportDisconnect(seed uint64) Table {
	const (
		m        = 6
		n        = 20
		deadline = 2_000_000
	)
	t := Table{
		ID:      "E3",
		Title:   "L1 vs L2: grants completed with a fraction of MHs disconnected (M=6, N=20)",
		Columns: []string{"disconnected", "requests", "L1 grants", "L2 grants", "L2 aborted"},
	}
	for _, frac := range []float64{0, 0.1, 0.25, 0.5} {
		down := int(frac * n)
		l1Grants := runDisconnectTrial(seed, m, n, down, deadline, true, nil)
		var aborted int64
		l2Grants := runDisconnectTrial(seed, m, n, down, deadline, false, &aborted)
		t.AddRow(
			fmt.Sprintf("%d/%d", down, n),
			n-down,
			l1Grants,
			l2Grants,
			aborted,
		)
	}
	t.AddNote("every connected MH issues one request; disconnected MHs never reply in L1, stalling all executions")
	return t
}

func runDisconnectTrial(seed uint64, m, n, down int, deadline sim.Time, useL1 bool, aborted *int64) int64 {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	var grants func() int64
	var issue func(core.MHID) error
	var l2 *lamport.L2
	if useL1 {
		l1, err := lamport.NewL1(sys, core.AllMHs(n), lamport.Options{Hold: 5})
		if err != nil {
			panic(err)
		}
		grants = l1.Grants
		issue = l1.Request
	} else {
		l2 = lamport.NewL2(sys, lamport.Options{Hold: 5})
		grants = l2.Grants
		issue = l2.Request
	}

	// The last `down` MHs disconnect before any requests are issued.
	for i := n - down; i < n; i++ {
		if err := sys.Disconnect(core.MHID(i)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n-down; i++ {
		mh := core.MHID(i)
		sys.Schedule(sim.Time(100+i*37), func() {
			// Requests from connected MHs only.
			if _, st := sys.Where(mh); st != core.StatusConnected {
				return
			}
			_ = issue(mh)
		})
	}
	if err := sys.RunUntil(deadline); err != nil {
		panic(err)
	}
	if aborted != nil && l2 != nil {
		*aborted = l2.FailedGrants()
	}
	return grants()
}

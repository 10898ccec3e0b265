package experiments

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/ring"
)

// E4RingCostVsK reproduces the §3.1.2 traversal-cost comparison: R1's
// traversal cost is independent of the number K of requests granted, while
// R2 pays per grant plus a fixed M·Cfixed circulation cost.
func E4RingCostVsK(seed uint64) Table {
	const (
		m = 6
		n = 30
	)
	t := Table{
		ID:      "E4",
		Title:   "R1 vs R2: cost of one ring traversal granting K requests (M=6, N=30)",
		Columns: []string{"K", "R1 paper", "R1 measured", "R2 paper", "R2 measured", "winner"},
	}
	p := cost.DefaultParams()
	crossover := cost.RingCrossoverK(n, m, n, p)
	for _, k := range []int{0, 2, 5, 10, 20, 30} {
		r1 := ringTrialR1(seed, m, n, k)
		r2 := ringTrialR2(seed, m, n, k)
		winner := "R2"
		if r1 < r2 {
			winner = "R1"
		}
		t.AddRow(
			k,
			cost.AnalyticR1PerTraversal(n, p),
			r1,
			cost.AnalyticR2PerTraversal(m, k, p),
			r2,
			winner,
		)
	}
	if crossover >= 0 {
		t.AddNote("analytic crossover at K=%d: beyond it R1's flat traversal amortises better", crossover)
	} else {
		t.AddNote("R2 is cheaper for every feasible K in this configuration")
	}
	t.AddNote("paper: R1 = N(2Cw+Cs) independent of K; R2 = K(3Cw+Cf+Cs) + M*Cf")
	return t
}

func ringTrialR1(seed uint64, m, n, k int) float64 {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)
	r1, err := ring.NewR1(sys, core.AllMHs(n), ring.Options{Hold: 3}, false, 1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < k; i++ {
		if err := r1.Request(core.MHID(i)); err != nil {
			panic(err)
		}
	}
	if err := r1.Start(); err != nil {
		panic(err)
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	if got := r1.Grants(); got != int64(k) {
		panic(fmt.Sprintf("experiments: R1 granted %d, want %d", got, k))
	}
	return sys.Meter().CategoryCost(cost.CatAlgorithm, cfg.Params)
}

func ringTrialR2(seed uint64, m, n, k int) float64 {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)
	r2, err := ring.NewR2(sys, ring.VariantPlain, ring.Options{Hold: 3}, 1, nil)
	if err != nil {
		panic(err)
	}
	for i := 0; i < k; i++ {
		if err := r2.Request(core.MHID(i)); err != nil {
			panic(err)
		}
	}
	// Let requests reach their MSSs before the token starts.
	sys.Schedule(500, func() {
		if err := r2.Start(); err != nil {
			panic(err)
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	if got := r2.Grants(); got != int64(k) {
		panic(fmt.Sprintf("experiments: R2 granted %d, want %d", got, k))
	}
	return sys.Meter().CategoryCost(cost.CatAlgorithm, cfg.Params)
}

// chasingTrial runs an R2-family variant against a token-chasing MH that
// re-requests from the token's next cell after every access. It returns the
// total grants to the chaser and the maximum grants it obtained within a
// single traversal.
func chasingTrial(seed uint64, m int, variant ring.Variant, lie bool, traversals int64) (total, maxPerTraversal int64) {
	const n = 4
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	perTraversal := make(map[int64]int64)
	var r2 *ring.R2
	opts := ring.Options{Hold: 2}
	opts.OnEnter = func(mh core.MHID) {
		if mh != 0 {
			return
		}
		perTraversal[r2.Traversals()]++
	}
	opts.OnExit = func(mh core.MHID) {
		if mh != 0 {
			return
		}
		at, status := sys.Where(mh)
		if status != core.StatusConnected {
			return
		}
		next := core.MSSID((int(at) + 1) % m)
		if err := sys.Move(mh, next); err == nil {
			sys.Schedule(1, func() { _ = r2.Request(mh) })
		}
	}
	var lieFn func(core.MHID) bool
	if lie {
		lieFn = func(mh core.MHID) bool { return mh == 0 }
	}
	var err error
	r2, err = ring.NewR2(sys, variant, opts, traversals, lieFn)
	if err != nil {
		panic(err)
	}
	if err := r2.Request(core.MHID(0)); err != nil {
		panic(err)
	}
	sys.Schedule(100, func() {
		if err := r2.Start(); err != nil {
			panic(err)
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	for _, g := range perTraversal {
		total += g
		if g > maxPerTraversal {
			maxPerTraversal = g
		}
	}
	return total, maxPerTraversal
}

// E5RingFairness reproduces the §3.1.2 interplay between host mobility and
// token movement: under R2 a MH that follows the token can be served many
// times in one traversal (up to N×M system-wide); R2′'s token-val bounds it
// to one access per traversal.
func E5RingFairness(seed uint64) Table {
	const (
		m      = 6
		rounds = 8
	)
	t := Table{
		ID:      "E5",
		Title:   "R2 vs R2': accesses obtained by a token-chasing MH (M=6, 8 traversals)",
		Columns: []string{"variant", "chaser grants", "max in one traversal", "paper bound per traversal"},
	}
	for _, v := range []ring.Variant{ring.VariantPlain, ring.VariantCounter} {
		total, maxPer := chasingTrial(seed, m, v, false, rounds)
		bound := "M = 6"
		if v == ring.VariantCounter {
			bound = "1"
		}
		t.AddRow(v.String(), total, maxPer, bound)
	}
	t.AddNote("R2 trades fairness for throughput; R2' ensures at most one access per MH per traversal")
	return t
}

// E6TokenList reproduces the §3.1.2 "variations" argument: a malicious MH
// that reports access-count 0 defeats R2′ but not R2″'s token-list.
func E6TokenList(seed uint64) Table {
	const (
		m      = 6
		rounds = 8
	)
	t := Table{
		ID:      "E6",
		Title:   "R2' vs R2'': accesses obtained by a malicious (under-reporting) chaser (M=6, 8 traversals)",
		Columns: []string{"variant", "liar grants", "max in one traversal", "robust"},
	}
	for _, v := range []ring.Variant{ring.VariantCounter, ring.VariantList} {
		total, maxPer := chasingTrial(seed, m, v, true, rounds)
		t.AddRow(v.String(), total, maxPer, maxPer <= 1)
	}
	t.AddNote("the token-list grants a MH again only after the token has revisited the granting MSS")
	return t
}

// E7RingDisconnect reproduces the §3.1.2 doze/disconnection comparison: R1
// interrupts every MH (dozing or not) and stalls on a disconnected member;
// R2 interrupts only prior requesters and skips disconnected ones.
func E7RingDisconnect(seed uint64) Table {
	const (
		m = 5
		n = 20
	)
	t := Table{
		ID:      "E7",
		Title:   "R1 vs R2: doze interruptions and disconnection tolerance (M=5, N=20, 1 requester, 1 disconnected)",
		Columns: []string{"algorithm", "doze interruptions", "stalled", "grants"},
	}

	// R1: all MHs doze, mh3 requests, mh10 disconnects.
	{
		cfg := core.DefaultConfig(m, n)
		cfg.Seed = seed
		sys := core.MustNewSystem(cfg)
		r1, err := ring.NewR1(sys, core.AllMHs(n), ring.Options{Hold: 3}, false, 2)
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			sys.SetDoze(core.MHID(i), true)
		}
		if err := sys.Disconnect(core.MHID(10)); err != nil {
			panic(err)
		}
		if err := r1.Request(core.MHID(3)); err != nil {
			panic(err)
		}
		sys.Schedule(100, func() {
			if err := r1.Start(); err != nil {
				panic(err)
			}
		})
		if err := sys.Run(); err != nil {
			panic(err)
		}
		t.AddRow("R1", sys.Stats().DozeInterruptions, r1.Stalled(), r1.Grants())
	}

	// R2': same scenario; the disconnected MH also had a pending request so
	// the token must skip it.
	{
		cfg := core.DefaultConfig(m, n)
		cfg.Seed = seed
		sys := core.MustNewSystem(cfg)
		r2, err := ring.NewR2(sys, ring.VariantCounter, ring.Options{Hold: 3}, 2, nil)
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			sys.SetDoze(core.MHID(i), true)
		}
		if err := r2.Request(core.MHID(3)); err != nil {
			panic(err)
		}
		if err := r2.Request(core.MHID(10)); err != nil {
			panic(err)
		}
		sys.Schedule(50, func() {
			if err := sys.Disconnect(core.MHID(10)); err != nil {
				panic(err)
			}
		})
		sys.Schedule(200, func() {
			if err := r2.Start(); err != nil {
				panic(err)
			}
		})
		if err := sys.Run(); err != nil {
			panic(err)
		}
		t.AddRow("R2'", sys.Stats().DozeInterruptions, false, r2.Grants())
	}
	t.AddNote("R1 wakes every dozing MH once per traversal; R2 touches only MHs with prior requests and returns the token past disconnected requesters")
	return t
}

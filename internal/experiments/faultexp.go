package experiments

import (
	"mobiledist/internal/core"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/sim"
)

// F1Unreliability surfaces the fault-injection and recovery counters the
// chaos subsystem adds to the model: wireless drops, ARQ retransmissions,
// suppressed duplicates, and token regenerations. It runs the R2′ token
// mutex (M=4, N=8, four traversals) under the process-wide default fault
// plan — the one cmd/mobilexp's -drop/-dup/-reorder/-flap/-crash flags
// install via SetDefaultFaultPlan — with token recovery armed whenever the
// plan contains crashes. With no plan installed it documents the fault-free
// baseline: every counter zero, protocol outcome identical to the seed
// tables.
func F1Unreliability(seed uint64) Table {
	const (
		m = 4
		n = 8
		// Failure-detector suspicion lag (ticks): a crashed station is
		// suspected this long after the crash instant.
		suspicionLag = sim.Time(2000)
	)
	t := Table{
		ID:      "F1",
		Title:   "Unreliable wireless: fault injection and recovery counters (M=4, N=8, R2' mutex)",
		Columns: []string{"counter", "value"},
	}

	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	plan := cfg.Faults
	sys := core.MustNewSystem(cfg)
	inj := sys.Injector()

	crashedCell := make(map[core.MSSID]bool)
	opts := ring.Options{Hold: 2}
	if plan != nil {
		for _, c := range plan.Crashes {
			crashedCell[c.MSS] = true
		}
	}
	if len(crashedCell) > 0 {
		opts.Recovery = &ring.TokenRecovery{
			ProbeEvery: 300,
			Timeout:    1000,
			Suspect: func(s core.MSSID, now sim.Time) bool {
				since, down := inj.DownSince(s)
				return down && now-since > suspicionLag
			},
		}
	}
	r2, err := ring.NewR2(sys, ring.VariantCounter, opts, 4, nil)
	if err != nil {
		panic(err)
	}
	if inj != nil {
		inj.Arm()
	}
	// Requesters sit in cells that never crash (round-robin placement:
	// mh i lives in cell i mod m); work in a crashed cell is outside the
	// recovery protocol's scope.
	requesters := 0
	for i := 0; i < n; i++ {
		if crashedCell[core.MSSID(i%m)] {
			continue
		}
		if err := r2.Request(core.MHID(i)); err != nil {
			panic(err)
		}
		requesters++
	}
	if err := r2.Start(); err != nil {
		panic(err)
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}

	st := sys.Stats()
	t.AddRow("wireless drops (injected loss, dark links)", st.WirelessDrops)
	t.AddRow("ARQ retransmits", st.Retransmits)
	t.AddRow("ARQ duplicates suppressed", st.DuplicatesSuppressed)
	t.AddRow("token regenerations", st.TokenRegenerations)
	t.AddRow("stale tokens dropped", r2.StaleTokensDropped())
	t.AddRow("CS requesters", requesters)
	t.AddRow("CS grants", r2.Grants())
	t.AddRow("ring traversals", r2.Traversals())
	if plan == nil {
		t.AddNote("no fault plan installed: fault-free baseline (use -drop/-dup/-reorder/-flap/-crash)")
	} else {
		t.AddNote("fault plan: seed=%d down{drop=%.2f dup=%.2f reorder=%.2f} up{drop=%.2f dup=%.2f reorder=%.2f} flaps=%d crashes=%d",
			plan.Seed, plan.Down.Drop, plan.Down.Duplicate, plan.Down.Reorder,
			plan.Up.Drop, plan.Up.Duplicate, plan.Up.Reorder, len(plan.Flaps), len(plan.Crashes))
	}
	if len(crashedCell) > 0 {
		t.AddNote("token recovery armed: probe every 300 ticks, loss timeout 1000, suspicion lag %d", int64(suspicionLag))
	}
	return t
}

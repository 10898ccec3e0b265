package experiments

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/multicast"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// A4MulticastHandoff measures the exactly-once multicast substrate (the
// paper's reference [1], built on the Section-2 handoff): as member mobility
// grows, the watermark-handoff traffic grows with it while the delivery
// guarantee — every member sees every item exactly once, in order — holds at
// every mobility level.
func A4MulticastHandoff(seed uint64) Table {
	const (
		m     = 8
		n     = 12
		g     = 6
		items = 10
	)
	t := Table{
		ID:    "A4",
		Title: "Extension: exactly-once multicast under mobility (M=8, |G|=6, 10 items)",
		Columns: []string{
			"moves/member", "deliveries", "exactly once", "handoffs", "handoff cost", "cost/item",
		},
	}
	for _, moves := range []int{0, 2, 5, 10} {
		res := multicastTrial(seed, m, n, g, items, moves)
		t.AddRow(moves, res.deliveries, res.exact, res.handoffs, res.handoffCost, res.perItem)
	}
	t.AddNote("delivery stays exactly-once at every mobility level; only the handoff (location) cost grows with moves")
	return t
}

type multicastTrialResult struct {
	deliveries  int64
	exact       bool
	handoffs    int64
	handoffCost float64
	perItem     float64
}

func multicastTrial(seed uint64, m, n, g, items, movesPerMember int) multicastTrialResult {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	got := make(map[core.MHID][]int64, g)
	mc, err := multicast.New(sys, core.AllMHs(g), multicast.Options{
		Sequencer: core.MSSID(m - 1),
		OnDeliver: func(at core.MHID, seq int64, _ any) {
			got[at] = append(got[at], seq)
		},
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < items; i++ {
		item := i
		sys.Schedule(sim.Time(300+i*500), func() {
			if err := mc.Publish(core.MHID(0), item); err != nil {
				panic(fmt.Sprintf("experiments: publish: %v", err))
			}
		})
	}
	if movesPerMember > 0 {
		if _, err := workload.NewMobility(sys, workload.MobilityConfig{
			MHs:        core.AllMHs(g),
			Interval:   workload.Span{Min: 150, Max: 600},
			MovesPerMH: movesPerMember,
			Locality:   0.4,
			Start:      50,
		}); err != nil {
			panic(err)
		}
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}

	exact := true
	for i := 0; i < g; i++ {
		seqs := got[core.MHID(i)]
		if len(seqs) != items {
			exact = false
			break
		}
		for j, s := range seqs {
			if s != int64(j) {
				exact = false
				break
			}
		}
	}
	p := cfg.Params
	return multicastTrialResult{
		deliveries:  mc.Delivered(),
		exact:       exact,
		handoffs:    mc.Handoffs(),
		handoffCost: sys.Meter().CategoryCost(cost.CatLocation, p),
		perItem:     sys.Meter().CategoryCost(cost.CatAlgorithm, p) / float64(items),
	}
}

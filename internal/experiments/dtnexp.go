package experiments

import (
	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/dtn"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// dtnProbe counts deliveries to the absent host.
type dtnProbe struct {
	delivered int64
}

func (p *dtnProbe) Name() string { return "dtn-probe" }
func (p *dtnProbe) HandleMH(_ core.Context, at core.MHID, _ core.Message) {
	if at == 0 {
		p.delivered++
	}
}

// D1StoreCarryForward sweeps the long-disconnection episode family
// (internal/workload Absence) over three disconnect durations and runs
// each episode under the three custody routing strategies: the paper's
// park-at-MSS behaviour as the control, epidemic anti-entropy gossip,
// and binary spray-and-wait over the host's visit history.
//
// The host crosses two cells (0→1→2), disconnects in cell 2, and a
// station streams messages at it every 40 ticks for the whole absence.
// The fault plan crashes cell 2 — the custodian — mid-absence (twice for
// the longest episodes), wiping whatever parks there, and bundles carry
// a TTL of 1500 ticks, so the longest absence also expires early
// traffic. Park therefore loses every pre-crash message; the replicating
// strategies hold copies in other cells and deliver strictly more before
// TTL expiry, at a measurable replication cost (transfers, summaries).
func D1StoreCarryForward(seed uint64) Table {
	const (
		m         = 4
		n         = 4
		depart    = sim.Time(200)
		ttl       = sim.Time(1500)
		sendEvery = sim.Time(40)
	)
	durations := []sim.Time{600, 1200, 2400}

	t := Table{
		ID:      "D1",
		Title:   "Store-carry-forward: delivery ratio vs disconnect duration, per routing strategy (M=4, N=4, TTL=1500)",
		Columns: []string{"disconnect", "strategy", "sent", "delivered", "ratio", "expired", "lost", "transfers", "summaries"},
	}

	run := func(duration sim.Time, strategy dtn.RoutingAlgorithm) {
		cfg := core.DefaultConfig(m, n)
		cfg.Seed = seed
		// Private fault plan: this table's weather must not depend on the
		// process-wide plan the -drop/-crash flags install.
		cfg.Faults = &core.FaultPlan{Crashes: []core.Crash{
			{MSS: 2, At: 500, RestartAt: 550},
			{MSS: 2, At: 1800, RestartAt: 1900},
		}}
		sys := core.MustNewSystem(cfg)
		p := &dtnProbe{}
		ctx := sys.Register(p)
		mgr, err := dtn.New(sys, dtn.Config{Strategy: strategy, TTL: ttl})
		if err != nil {
			panic(err)
		}
		sys.Injector().Arm()
		if _, err := workload.NewAbsence(sys, workload.AbsenceConfig{
			MH:        0,
			PreMoves:  2,
			MoveEvery: workload.FixedSpan(60),
			Depart:    depart,
			Duration:  duration,
			Return:    3,
			KnowsPrev: true,
		}); err != nil {
			panic(err)
		}
		var sent int64
		for at, seq := depart+20, 0; at < depart+duration; at, seq = at+sendEvery, seq+1 {
			payload := seq
			sys.Schedule(at, func() {
				ctx.SendToMH(3, 0, payload, cost.CatAlgorithm)
				sent++
			})
		}
		if err := sys.Run(); err != nil {
			panic(err)
		}
		st := mgr.Stats()
		t.AddRow(int64(duration), strategy.Name(), sent, p.delivered,
			float64(p.delivered)/float64(sent),
			st.Expired, st.Lost, st.Transfers, st.SummariesSent)
	}

	for _, d := range durations {
		run(d, dtn.Park{})
		run(d, dtn.Epidemic{Every: 100})
		run(d, dtn.SprayAndWait{})
	}
	t.AddNote("host walks 0→1→2, disconnects in cell 2 at t=%d; cell 2 crashes at t=500 (and t=1800 for the longest episode), wiping parked custody", int64(depart))
	t.AddNote("park is the paper's disconnect protocol (one custodian); epidemic gossips summary vectors every 100 ticks; spray-and-wait splits copies toward recently visited cells")
	t.AddNote("TTL=1500 ticks: in the 2400-tick episode even replicated copies of early traffic expire before the host returns")
	t.AddNote("expired/lost count per-replica events, so replicating strategies can exceed the sent count; transfers+summaries are the replication cost")
	return t
}

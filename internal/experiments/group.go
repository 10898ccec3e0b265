package experiments

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/group"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// groupStrategy names the three §4 strategies.
type groupStrategy int

const (
	stratPureSearch groupStrategy = iota + 1
	stratAlwaysInform
	stratLocationView
)

func (s groupStrategy) String() string {
	switch s {
	case stratPureSearch:
		return "pure search"
	case stratAlwaysInform:
		return "always inform"
	case stratLocationView:
		return "location view"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// groupTrialResult carries the measurements of one strategy under one
// workload.
type groupTrialResult struct {
	effectiveCost float64 // (algorithm + location cost) per group message
	algCost       float64
	locCost       float64
	staleCost     float64
	fixedPerMsg   float64
	wirelessPer   float64
	searchesPer   float64
	delivered     int64
	moves         int64
	msgs          int64
	lvMax         int
	lvUpdates     int64
	f             float64 // significant fraction of moves
}

// groupTrial runs one strategy under a workload of msgs group messages and
// movesPerMember moves per member.
func groupTrial(seed uint64, m, n, g int, strat groupStrategy, msgs, movesPerMember int, locality float64, window sim.Time) groupTrialResult {
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	sys := core.MustNewSystem(cfg)

	members := core.AllMHs(g)
	var comm group.Comm
	var lv *group.LocationView
	switch strat {
	case stratPureSearch:
		ps, err := group.NewPureSearch(sys, members, group.Options{})
		if err != nil {
			panic(err)
		}
		comm = ps
	case stratAlwaysInform:
		ai, err := group.NewAlwaysInform(sys, members, group.Options{})
		if err != nil {
			panic(err)
		}
		comm = ai
	case stratLocationView:
		var err error
		lv, err = group.NewLocationView(sys, members, group.LocationViewOptions{
			Coordinator:   core.MSSID(m - 1),
			CombineWindow: 200,
		})
		if err != nil {
			panic(err)
		}
		comm = lv
	}

	var mob *workload.Mobility
	if movesPerMember > 0 {
		var err error
		mob, err = workload.NewMobility(sys, workload.MobilityConfig{
			MHs:        members,
			Interval:   workload.Span{Min: window / sim.Time(movesPerMember+1) / 2, Max: window / sim.Time(movesPerMember+1)},
			MovesPerMH: movesPerMember,
			Locality:   locality,
			Start:      100,
		})
		if err != nil {
			panic(err)
		}
	}
	tr, err := workload.NewTraffic(sys, workload.TrafficConfig{
		Senders:  members,
		Interval: workload.FixedSpan(window / sim.Time(msgs+1)),
		Messages: msgs,
		Start:    200,
	}, func(mh core.MHID, payload any) error { return comm.Send(mh, payload) })
	if err != nil {
		panic(err)
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}

	p := cfg.Params
	res := groupTrialResult{
		algCost:     sys.Meter().CategoryCost(cost.CatAlgorithm, p),
		locCost:     sys.Meter().CategoryCost(cost.CatLocation, p),
		staleCost:   sys.Meter().CategoryCost(cost.CatStale, p),
		delivered:   comm.Delivered(),
		msgs:        tr.Sent(),
		fixedPerMsg: float64(sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed)) / float64(tr.Sent()),
		wirelessPer: float64(sys.Meter().Count(cost.CatAlgorithm, cost.KindWireless)) / float64(tr.Sent()),
		searchesPer: float64(sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch)) / float64(tr.Sent()),
	}
	if mob != nil {
		res.moves = mob.Moves()
	}
	res.effectiveCost = (res.algCost + res.locCost) / float64(res.msgs)
	if lv != nil {
		res.lvMax = lv.MaxViewSize()
		res.lvUpdates = lv.Updates()
		if res.moves > 0 {
			res.f = float64(lv.Updates()) / float64(res.moves)
		}
	}
	return res
}

// E8GroupCostVsMobility reproduces the §4 effective-cost comparison: pure
// search is flat in mobility, always-inform grows with MOB/MSG, and
// location view grows only with the significant fraction f of MOB/MSG.
func E8GroupCostVsMobility(seed uint64) Table {
	const (
		m      = 10
		n      = 20
		g      = 10
		msgs   = 20
		window = 200_000
	)
	t := Table{
		ID:    "E8",
		Title: "Effective cost per group message vs mobility-to-message ratio (M=10, |G|=10, 20 msgs)",
		Columns: []string{
			"MOB/MSG", "pure search", "AI paper", "AI measured", "LV bound", "LV measured", "LV f",
		},
	}
	p := cost.DefaultParams()
	for _, ratio := range []float64{0, 0.5, 1, 2, 5} {
		movesPerMember := int(ratio * msgs / g)
		ps := groupTrial(seed, m, n, g, stratPureSearch, msgs, movesPerMember, 0.3, window)
		ai := groupTrial(seed, m, n, g, stratAlwaysInform, msgs, movesPerMember, 0.3, window)
		lv := groupTrial(seed, m, n, g, stratLocationView, msgs, movesPerMember, 0.3, window)
		mobPerMsg := float64(ai.moves) / float64(ai.msgs)
		lvBound := cost.AnalyticLocationViewEffectiveBound(g, lv.lvMax, lv.f, float64(lv.moves)/float64(lv.msgs), p)
		t.AddRow(
			fmt.Sprintf("%.2f", mobPerMsg),
			ps.effectiveCost,
			cost.AnalyticAlwaysInformEffective(g, mobPerMsg, p),
			ai.effectiveCost,
			lvBound,
			lv.effectiveCost,
			fmt.Sprintf("%.2f", lv.f),
		)
	}
	t.AddNote("pure search: MSG x (|G|-1)(2Cw+Cs), independent of MOB; always inform adds a same-priced update per move; location view pays only for significant moves")
	return t
}

// E9GroupLocality reproduces the §4.3 locality argument: the static-tier
// traffic of a location-view group message tracks |LV(G)|, not |G|.
func E9GroupLocality(seed uint64) Table {
	const (
		m    = 10
		n    = 20
		g    = 10
		msgs = 10
	)
	t := Table{
		ID:    "E9",
		Title: "Fixed-network messages per group message vs member concentration (M=10, |G|=10)",
		Columns: []string{
			"cells (|LV|)", "LV fixed/msg", "AI fixed/msg", "PS searches/msg", "LV cost", "AI cost", "PS cost",
		},
	}
	for _, cells := range []int{1, 2, 5, 10} {
		c := cells
		place := func(mh core.MHID) core.MSSID {
			if int(mh) < g {
				return core.MSSID(int(mh) % c)
			}
			return core.MSSID(int(mh) % m)
		}
		run := func(strat groupStrategy) groupTrialResult {
			cfg := core.DefaultConfig(m, n)
			cfg.Seed = seed
			cfg.Placement = place
			sys := core.MustNewSystem(cfg)
			members := core.AllMHs(g)
			var comm group.Comm
			switch strat {
			case stratPureSearch:
				ps, err := group.NewPureSearch(sys, members, group.Options{})
				if err != nil {
					panic(err)
				}
				comm = ps
			case stratAlwaysInform:
				ai, err := group.NewAlwaysInform(sys, members, group.Options{})
				if err != nil {
					panic(err)
				}
				comm = ai
			case stratLocationView:
				lv, err := group.NewLocationView(sys, members, group.LocationViewOptions{Coordinator: core.MSSID(m - 1)})
				if err != nil {
					panic(err)
				}
				comm = lv
			}
			for i := 0; i < msgs; i++ {
				from := core.MHID(i % g)
				sys.Schedule(sim.Time(i)*5_000, func() {
					if err := comm.Send(from, i); err != nil {
						panic(err)
					}
				})
			}
			if err := sys.Run(); err != nil {
				panic(err)
			}
			p := cfg.Params
			return groupTrialResult{
				effectiveCost: sys.Meter().CategoryCost(cost.CatAlgorithm, p) / float64(msgs),
				fixedPerMsg:   float64(sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed)) / float64(msgs),
				searchesPer:   float64(sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch)) / float64(msgs),
			}
		}
		lv := run(stratLocationView)
		ai := run(stratAlwaysInform)
		ps := run(stratPureSearch)
		t.AddRow(
			cells,
			lv.fixedPerMsg,
			ai.fixedPerMsg,
			ps.searchesPer,
			lv.effectiveCost,
			ai.effectiveCost,
			ps.effectiveCost,
		)
	}
	t.AddNote("location view sends |LV|-1 fixed messages per group message; search/inform strategies send one per member (|G|-1) regardless of concentration")
	return t
}

// E10GroupWireless reproduces the §4.3 battery comparison: a location-view
// group message touches the wireless link |G| times; the per-member
// strategies touch it 2(|G|−1) times.
func E10GroupWireless(seed uint64) Table {
	const (
		m    = 8
		n    = 16
		g    = 8
		msgs = 10
	)
	t := Table{
		ID:      "E10",
		Title:   "Wireless messages (battery) per group message by strategy (M=8, |G|=8)",
		Columns: []string{"strategy", "paper", "measured", "sender tx per msg"},
	}
	for _, strat := range []groupStrategy{stratPureSearch, stratAlwaysInform, stratLocationView} {
		res := groupTrial(seed, m, n, g, strat, msgs, 0, 0, 100_000)
		paper := int64(2 * (g - 1))
		txPerMsg := float64(g - 1)
		if strat == stratLocationView {
			paper = g
			txPerMsg = 1
		}
		t.AddRow(strat.String(), paper, res.wirelessPer, txPerMsg)
	}
	t.AddNote("location view: one uplink plus |G|-1 downlinks; the others transmit a separate copy per member over the sender's wireless link")
	return t
}

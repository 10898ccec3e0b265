package main

import (
	"fmt"
	"runtime"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/dtn"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
	"mobiledist/internal/workload"
)

// simSize sizes one fixed-input simulator run.
type simSize struct {
	N, M, Ops int
}

// scaled shrinks the size for the test suite, keeping N >> M.
func (s simSize) scaled(f float64) simSize {
	shrink := func(v, floor int) int {
		if v = int(float64(v) * f); v < floor {
			v = floor
		}
		return v
	}
	return simSize{N: shrink(s.N, 64), M: shrink(s.M, 4), Ops: shrink(s.Ops, 200)}
}

// simCounts are the simulated statistics of one run: everything here is a
// pure function of (workload, size, seed), so two runs of one seed must
// print the same block byte for byte whatever the host was doing.
type simCounts struct {
	Ops, Delivered, Failed int64
	Messages               int64
	Steps                  uint64
	Elapsed                sim.Time
	Cost                   float64
	Stats                  core.Stats
	Drops                  int64
	Dtn                    dtn.Stats
	Stored, LiveRecs       int
	Problems               []string
}

func (c simCounts) block() string {
	return fmt.Sprintf("ops=%d delivered=%d failed=%d messages=%d steps=%d elapsed=%d cost=%.1f\n"+
		"searches=%d stale_reroutes=%d moves=%d disconnects=%d reconnects=%d failed_deliveries=%d retransmits=%d wireless_drops=%d dups_suppressed=%d injected_drops=%d\n"+
		"dtn: accepted=%d delivered=%d failed=%d transfers=%d duplicates=%d summaries=%d expired=%d evicted=%d quota=%d lost=%d stored=%d\n",
		c.Ops, c.Delivered, c.Failed, c.Messages, c.Steps, int64(c.Elapsed), c.Cost,
		c.Stats.Searches, c.Stats.StaleReroutes, c.Stats.Moves, c.Stats.Disconnects, c.Stats.Reconnects,
		c.Stats.FailedDeliveries, c.Stats.Retransmits, c.Stats.WirelessDrops, c.Stats.DuplicatesSuppressed, c.Drops,
		c.Dtn.Accepted, c.Dtn.Delivered, c.Dtn.Failed, c.Dtn.Transfers, c.Dtn.Duplicates, c.Dtn.SummariesSent,
		c.Dtn.Expired, c.Dtn.EvictedLRU, c.Dtn.DroppedQuota, c.Dtn.Lost, c.Stored)
}

// simBuild is a sim workload's set-up phase: it generates the op stream
// from the seed and constructs the system, and returns the timed phase.
type simBuild func(sz simSize, seed uint64, tr *obs.Tracer, sp *spanRecorder, parent int) (run func() (simCounts, error), err error)

// systemCounts reads the public counters every sim workload shares.
func systemCounts(sys *core.System) simCounts {
	c := simCounts{
		Steps:    sys.Kernel().Steps(),
		Elapsed:  sys.Now(),
		Cost:     sys.Meter().TotalCost(sys.Config().Params),
		Stats:    sys.Stats(),
		LiveRecs: sys.Engine().LiveRecs(),
	}
	for _, kind := range cost.Kinds() {
		c.Messages += sys.Meter().KindTotal(kind)
	}
	if inj := sys.Injector(); inj != nil {
		c.Drops = inj.Stats().WirelessDrops
	}
	if c.LiveRecs != 0 {
		c.Problems = append(c.Problems, fmt.Sprintf("engine holds %d delivery records at quiescence", c.LiveRecs))
	}
	return c
}

// buildScale is the set-up of sim-route and sim-chase: a GenScale op
// stream replayed by RunScale on the default kernel.
func buildScale(kind workload.ScaleKind) simBuild {
	return func(sz simSize, seed uint64, tr *obs.Tracer, sp *spanRecorder, parent int) (func() (simCounts, error), error) {
		var sc *workload.ScaleScenario
		var err error
		sp.in("workload.GenScale", parent, func(int) {
			sc, err = workload.GenScale(workload.ScaleConfig{N: sz.N, M: sz.M, Seed: seed, Kind: kind, Ops: sz.Ops})
		})
		if err != nil {
			return nil, err
		}
		var sys *core.System
		sp.in("core.NewSystem", parent, func(int) {
			// NewScaleSystem takes its tracer from the package default.
			prev := core.DefaultTracer()
			core.SetDefaultTracer(tr)
			sys, err = workload.NewScaleSystem(sc, 0)
			core.SetDefaultTracer(prev)
		})
		if err != nil {
			return nil, err
		}
		return func() (simCounts, error) {
			res, err := workload.RunScale(sys, sc)
			if err != nil {
				return simCounts{}, err
			}
			c := systemCounts(sys)
			c.Ops, c.Delivered = int64(sz.Ops), res.Delivered
			if res.Injected != c.Ops {
				c.Problems = append(c.Problems, fmt.Sprintf("injected %d of %d ops", res.Injected, c.Ops))
			}
			if c.Delivered != c.Ops {
				c.Problems = append(c.Problems, fmt.Sprintf("delivered %d of %d messages", c.Delivered, c.Ops))
			}
			return c, nil
		}, nil
	}
}

// custodyOp is one pre-generated sim-custody operation: flip a host's
// connectivity, or route a message at it.
type custodyOp struct {
	Wait sim.Time
	Flip bool
	MH   core.MHID
	MSS  core.MSSID
}

const custodyChains = 64

// Delivery states of one sim-custody message.
const (
	msgPending = iota
	msgDelivered
	msgFailed
)

// custodySink is the algorithm sim-custody runs under: it accounts every
// sent message as delivered or failed, exactly once.
type custodySink struct {
	state             []uint8
	delivered, failed int64
	twice             int64
}

func (s *custodySink) Name() string { return "bench-custody" }

func (s *custodySink) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {}

func (s *custodySink) settle(msg core.Message, to uint8, n *int64) {
	i := msg.(int)
	if s.state[i] != msgPending {
		s.twice++
		return
	}
	s.state[i] = to
	*n++
}

func (s *custodySink) HandleMH(_ core.Context, _ core.MHID, msg core.Message) {
	s.settle(msg, msgDelivered, &s.delivered)
}

func (s *custodySink) OnDeliveryFailure(_ core.Context, _ core.MSSID, _ core.MHID, msg core.Message, _ core.FailReason) {
	s.settle(msg, msgFailed, &s.failed)
}

// buildCustody is the set-up of sim-custody: lossy wireless links, hosts
// that keep disconnecting, and the dtn manager holding their traffic.
func buildCustody(sz simSize, seed uint64, tr *obs.Tracer, sp *spanRecorder, parent int) (func() (simCounts, error), error) {
	var ops []custodyOp
	sp.in("bench.genCustodyOps", parent, func(int) {
		rng := sim.NewRNG(seed)
		ops = make([]custodyOp, sz.Ops)
		for i := range ops {
			ops[i] = custodyOp{
				Wait: sim.Time(rng.Intn(16) + 1),
				Flip: rng.Intn(4) == 0,
				MH:   core.MHID(rng.Intn(sz.N)),
				MSS:  core.MSSID(rng.Intn(sz.M)),
			}
		}
	})
	var (
		sys *core.System
		mgr *dtn.Manager
		err error
	)
	sink := &custodySink{state: make([]uint8, sz.Ops)}
	var ctx core.Context
	sp.in("core.NewSystem", parent, func(id int) {
		cfg := core.DefaultConfig(sz.M, sz.N)
		cfg.Seed = seed
		cfg.Obs = tr
		lossy := core.LinkFaults{Drop: 0.05}
		cfg.Faults = &core.FaultPlan{Seed: seed, Down: lossy, Up: lossy}
		if sys, err = core.NewSystem(cfg); err != nil {
			return
		}
		ctx = sys.Register(sink)
		sp.in("dtn.New", id, func(int) {
			mgr, err = dtn.New(sys, dtn.Config{Strategy: dtn.Epidemic{Every: 100}, TTL: 4000, StoreCap: 4096, MHQuota: 64})
		})
		sys.Injector().Arm()
	})
	if err != nil {
		return nil, err
	}
	return func() (simCounts, error) {
		var sent int64
		apply := func(i int) {
			op := ops[i]
			if !op.Flip {
				sent++
				ctx.SendToMH(op.MSS, op.MH, i, cost.CatAlgorithm)
				return
			}
			switch _, status := sys.Where(op.MH); status {
			case core.StatusConnected:
				_ = sys.Disconnect(op.MH)
			case core.StatusDisconnected:
				_ = sys.Reconnect(op.MH, op.MSS, true)
			}
			// In transit: the host is mid-protocol; the op is a no-op.
		}
		var inject func(i int)
		inject = func(i int) {
			apply(i)
			if next := i + custodyChains; next < len(ops) {
				sys.Schedule(ops[next].Wait, func() { inject(next) })
			}
		}
		for c := 0; c < custodyChains && c < len(ops); c++ {
			c := c
			sys.Schedule(ops[c].Wait, func() { inject(c) })
		}
		if err := sys.Run(); err != nil {
			return simCounts{}, err
		}
		c := systemCounts(sys)
		c.Ops, c.Delivered, c.Failed = sent, sink.delivered, sink.failed
		c.Dtn, c.Stored = mgr.Stats(), mgr.StoredTotal()
		// Message conservation: every message the engine accepted was
		// delivered or reported failed, exactly once, and no store or
		// ledger still holds one.
		if sent != sink.delivered+sink.failed {
			c.Problems = append(c.Problems, fmt.Sprintf("conservation: sent %d != delivered %d + failed %d", sent, sink.delivered, sink.failed))
		}
		if sink.twice != 0 {
			c.Problems = append(c.Problems, fmt.Sprintf("%d messages settled twice", sink.twice))
		}
		if c.Stored != 0 {
			c.Problems = append(c.Problems, fmt.Sprintf("dtn stores hold %d bundles at quiescence", c.Stored))
		}
		if c.Dtn.Accepted != c.Dtn.Delivered+c.Dtn.Failed {
			c.Problems = append(c.Problems, fmt.Sprintf("dtn: accepted %d != delivered %d + failed %d", c.Dtn.Accepted, c.Dtn.Delivered, c.Dtn.Failed))
		}
		return c, nil
	}, nil
}

// simRep is one measured repetition of a sim workload.
type simRep struct {
	setup, wall, cpu time.Duration
	counts           simCounts
	mem              memDelta
	// footprintMB is what the runtime held from the OS when the run ended.
	footprintMB float64
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	objects, bytes uint64
	pause          time.Duration
}

func readMem() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		objects: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		pause:   time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// runSimRep sets a sim workload up and runs it once. withMem adds the
// MemStats reads (each stops the world), so only layer passes ask for it.
func runSimRep(build simBuild, sz simSize, seed uint64, tr *obs.Tracer, sp *spanRecorder, withMem bool) (simRep, error) {
	var rep simRep
	root := sp.begin("rep", -1)
	defer sp.end(root)

	t0 := time.Now()
	setupSpan := sp.begin("setup", root)
	run, err := build(sz, seed, tr, sp, setupSpan)
	sp.end(setupSpan)
	if err != nil {
		return rep, err
	}
	rep.setup = time.Since(t0)

	var m0 runtime.MemStats
	if withMem {
		m0 = readMem()
	}
	progress.attempted.Add(int64(sz.Ops))
	runSpan := sp.begin("core.Run", root)
	c0, t1 := cpuTime(), time.Now()
	rep.counts, err = run()
	rep.wall, rep.cpu = time.Since(t1), cpuTime()-c0
	sp.end(runSpan)
	progress.settled.Add(int64(sz.Ops))
	if withMem {
		rep.mem = memSince(m0)
	}
	rep.footprintMB = footprintMB()
	return rep, err
}

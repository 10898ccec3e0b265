package conformance

// Chaos conformance: the same model invariants the fault-free suite pins —
// single CS holder, grant uniqueness, per-pair FIFO, prefix delivery across
// moves, mobility-state partitioning — re-asserted under deterministic
// fault plans (internal/faults) on BOTH substrates, plus the token-recovery
// scenario: one MSS crash swallows the ring token and the R2 recovery
// sublayer regenerates exactly one replacement ("counted, never two").
//
// `make chaos` runs exactly these tests (they share the TestChaos prefix)
// under the race detector.

import (
	"slices"
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// lossyPlan is the suite's standard unreliable-wireless weather: drops on
// both channel classes at the acceptance ceiling (30%), duplicates at 10%,
// and a little reordering. The injector's decisions are a pure function of
// (seed, channel, index), so the weather is reproducible.
func lossyPlan() *core.FaultPlan {
	return &core.FaultPlan{
		Seed: 0xC0FFEE,
		Down: core.LinkFaults{Drop: 0.3, Duplicate: 0.1, Reorder: 0.05},
		Up:   core.LinkFaults{Drop: 0.3, Duplicate: 0.1, Reorder: 0.05},
	}
}

// flapPlan darkens cell 2's downlinks and mh1's uplink for a virtual-time
// window; the ARQ sublayer must carry traffic across the outage.
func flapPlan() *core.FaultPlan {
	return &core.FaultPlan{
		Seed:  7,
		Flaps: []core.Flap{{MSS: 2, MHs: []core.MHID{1}, From: 50, Until: 400}},
	}
}

// chaosMutexScenario drives the R2′ token mutex with k requesters under
// whatever plan the driver carries: requests are sent and the network fully
// drained (so ARQ has recovered every lost request), then the token is
// started for two traversals. Returns per-MH entry counts and the maximum
// simultaneous CS holders observed.
func chaosMutexScenario(t *testing.T, d driver, k int) (entries map[core.MHID]int, maxHolders int) {
	t.Helper()
	entries = make(map[core.MHID]int)
	holders := 0
	opts := ring.Options{
		Hold: 2,
		OnEnter: func(mh core.MHID) {
			holders++
			if holders > maxHolders {
				maxHolders = holders
			}
			entries[mh]++
		},
		OnExit: func(mh core.MHID) { holders-- },
	}
	r2, err := ring.NewR2(d.registrar(), ring.VariantCounter, opts, 2, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	d.start()
	d.do(func() {
		for i := 0; i < k; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
	})
	d.settle(t) // drain fully: every request has survived the weather
	d.do(func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	d.settle(t)
	var snapEntries map[core.MHID]int
	var snapMax int
	d.do(func() {
		snapEntries = make(map[core.MHID]int, len(entries))
		for mh, c := range entries {
			snapEntries[mh] = c
		}
		snapMax = maxHolders
	})
	return snapEntries, snapMax
}

// TestChaosMutexUnderLoss: mutual exclusion and grant uniqueness survive
// 30% wireless drop, 10% duplication, and reordering — the ARQ sublayer
// restores the delivery guarantees the token protocol assumes. The fault
// and recovery counters must actually register the weather.
func TestChaosMutexUnderLoss(t *testing.T) {
	const k = 4
	forEachSubstrateFaults(t, 5, 10, lossyPlan(), func(t *testing.T, d driver) {
		entries, maxHolders := chaosMutexScenario(t, d, k)
		if maxHolders != 1 {
			t.Errorf("max simultaneous CS holders = %d, want 1", maxHolders)
		}
		for i := 0; i < k; i++ {
			if got := entries[core.MHID(i)]; got != 1 {
				t.Errorf("mh%d entered the critical section %d times, want 1", i, got)
			}
		}
		st := d.stats()
		if st.WirelessDrops == 0 {
			t.Error("WirelessDrops = 0 under a 30% drop plan")
		}
		if st.Retransmits == 0 {
			t.Error("Retransmits = 0: ARQ never recovered a loss")
		}
		if st.DuplicatesSuppressed == 0 {
			t.Error("DuplicatesSuppressed = 0 under a 10% duplicate plan")
		}
	})
}

// TestChaosPerPairFIFOUnderLoss: the ordered-pair FIFO guarantee holds
// under drop/duplicate/reorder weather — the receiver sees every message
// exactly once, in order.
func TestChaosPerPairFIFOUnderLoss(t *testing.T) {
	const k = 24
	forEachSubstrateFaults(t, 3, 6, lossyPlan(), func(t *testing.T, d driver) {
		var received []int
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			if at == 1 {
				received = append(received, msg.(int))
			}
		}}
		ctx := d.registrar().Register(p)
		d.start()
		d.do(func() {
			for i := 0; i < k; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
		d.settle(t)
		var snap []int
		d.do(func() { snap = append(snap, received...) })
		if len(snap) != k {
			t.Fatalf("received %d messages, want %d (loss leaked through ARQ)", len(snap), k)
		}
		for i, v := range snap {
			if v != i {
				t.Fatalf("received[%d] = %d, want %d (FIFO violated under faults)", i, v, i)
			}
		}
	})
}

// TestChaosPrefixAcrossMovesUnderFlap: a stream to a MH that moves twice
// mid-stream arrives complete and in order even though one destination cell
// (and the receiver's uplink) goes dark for a window mid-run.
func TestChaosPrefixAcrossMovesUnderFlap(t *testing.T) {
	const batch = 8
	forEachSubstrateFaults(t, 3, 6, flapPlan(), func(t *testing.T, d driver) {
		var received []int
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			if at == 1 {
				received = append(received, msg.(int))
			}
		}}
		ctx := d.registrar().Register(p)
		d.start()
		send := func(from, to int) {
			d.do(func() {
				for i := from; i < to; i++ {
					if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
						t.Errorf("SendMHToMH: %v", err)
					}
				}
			})
		}
		send(0, batch)
		d.move(1, 2) // into the cell that is about to flap
		send(batch, 2*batch)
		d.pause(t)
		d.move(1, 0)
		send(2*batch, 3*batch)
		d.settle(t)
		var snap []int
		d.do(func() { snap = append(snap, received...) })
		if len(snap) != 3*batch {
			t.Fatalf("received %d messages, want %d (stream lost across moves + flap)", len(snap), 3*batch)
		}
		for i, v := range snap {
			if v != i {
				t.Fatalf("received[%d] = %d, want %d (prefix order violated under flap)", i, v, i)
			}
		}
	})
}

// TestChaosMobilityPartitioningUnderLoss: the mobility protocol's state
// partition invariant — each MH in exactly one local list XOR one
// disconnected set — holds when the protocol's own wireless legs run under
// loss, and no mobility operation is lost or double-counted.
func TestChaosMobilityPartitioningUnderLoss(t *testing.T) {
	const (
		m = 4
		n = 8
	)
	forEachSubstrateFaults(t, m, n, lossyPlan(), func(t *testing.T, d driver) {
		ctx := d.registrar().Register(&probe{})
		d.start()
		d.move(0, 3)
		d.disconnect(1)
		d.move(2, 0)
		d.disconnect(3)
		d.pause(t)
		d.reconnect(1, 2)
		d.move(0, 1)
		d.settle(t)
		d.do(func() {
			for mh := 0; mh < n; mh++ {
				localIn, discIn := 0, 0
				for mss := 0; mss < m; mss++ {
					if ctx.IsLocal(core.MSSID(mss), core.MHID(mh)) {
						localIn++
					}
					if ctx.IsDisconnectedHere(core.MSSID(mss), core.MHID(mh)) {
						discIn++
					}
				}
				if localIn > 1 || discIn > 1 || localIn+discIn != 1 {
					t.Errorf("mh%d: member of %d local lists and %d disconnected sets, want exactly one of exactly one",
						mh, localIn, discIn)
				}
			}
		})
		st := d.stats()
		if st.Moves != 3 || st.Disconnects != 2 || st.Reconnects != 1 {
			t.Errorf("stats = %d moves / %d disconnects / %d reconnects, want 3/2/1",
				st.Moves, st.Disconnects, st.Reconnects)
		}
	})
}

// TestChaosTokenRecovery: MSS 2 crashes before the token's first visit and
// swallows it mid-ring; the R2 recovery sublayer (probe rounds + timeout +
// generation election) regenerates exactly ONE replacement token, every
// requester in a live cell is eventually served exactly once, and mutual
// exclusion never breaks — on both substrates.
func TestChaosTokenRecovery(t *testing.T) {
	const (
		m = 4
		n = 8
		// suspicionLag is the failure detector's accuracy delay: a crashed
		// station is suspected only this long after its crash instant.
		suspicionLag = sim.Time(2000)
	)
	plan := &core.FaultPlan{
		Seed:    11,
		Crashes: []core.Crash{{MSS: 2, At: 1, RestartAt: 2500}},
	}
	forEachSubstrateFaults(t, m, n, plan, func(t *testing.T, d driver) {
		entries := make(map[core.MHID]int)
		holders, maxHolders := 0, 0
		inj := d.injector()
		if inj == nil {
			t.Fatal("driver has no fault injector")
		}
		opts := ring.Options{
			Hold: 2,
			OnEnter: func(mh core.MHID) {
				holders++
				if holders > maxHolders {
					maxHolders = holders
				}
				entries[mh]++
			},
			OnExit: func(mh core.MHID) { holders-- },
			Recovery: &ring.TokenRecovery{
				ProbeEvery: 300,
				Timeout:    1000,
				// The oracle consults the injector's ground truth, delayed
				// by the suspicion lag — accurate (never suspects a live
				// station) yet realistically late.
				Suspect: func(s core.MSSID, now sim.Time) bool {
					since, down := inj.DownSince(s)
					return down && now-since > suspicionLag
				},
			},
		}
		r2, err := ring.NewR2(d.registrar(), ring.VariantCounter, opts, 4, nil)
		if err != nil {
			t.Fatalf("NewR2: %v", err)
		}
		d.start()
		d.do(func() {
			inj.Arm()
			// Requesters sit in live cells only (round-robin placement:
			// mh0→mss0, mh1→mss1, mh3→mss3); the crashed cell 2 has no
			// pending work, matching the protocol's scope.
			for _, mh := range []core.MHID{0, 1, 3} {
				if err := r2.Request(mh); err != nil {
					t.Errorf("Request: %v", err)
				}
			}
			if err := r2.Start(); err != nil {
				t.Errorf("Start: %v", err)
			}
		})
		d.settle(t)
		var regens, stale, crashDiscards int64
		var snapEntries map[core.MHID]int
		var snapMax int
		d.do(func() {
			regens = r2.Regenerations()
			stale = r2.StaleTokensDropped()
			crashDiscards = inj.Stats().CrashDiscards
			snapEntries = make(map[core.MHID]int, len(entries))
			for mh, c := range entries {
				snapEntries[mh] = c
			}
			snapMax = maxHolders
		})
		tokenRegens := d.stats().TokenRegenerations
		if regens != 1 {
			t.Errorf("token regenerations = %d, want exactly 1 (counted, never two)", regens)
		}
		if tokenRegens != regens {
			t.Errorf("Stats.TokenRegenerations = %d, want %d", tokenRegens, regens)
		}
		if snapMax > 1 {
			t.Errorf("max simultaneous CS holders = %d under recovery, want <= 1", snapMax)
		}
		for _, mh := range []core.MHID{0, 1, 3} {
			if got := snapEntries[mh]; got != 1 {
				t.Errorf("mh%d entered the critical section %d times, want 1", int(mh), got)
			}
		}
		if stale < 0 {
			t.Errorf("StaleTokensDropped = %d", stale)
		}
		if crashDiscards == 0 {
			t.Error("CrashDiscards = 0: the crash never swallowed anything")
		}
	})
}

// TestChaosDeterministicWeather: on the deterministic substrate the whole
// chaos run — the injector's fault events and counters — is a pure
// function of (plan, seed): two identical systems produce identical
// events, and a different plan seed different ones.
func TestChaosDeterministicWeather(t *testing.T) {
	run := func(seed uint64) ([]obs.Event, engine.FaultStats) {
		plan := lossyPlan()
		plan.Seed = seed
		d := newSimFaultDriver(5, 10, plan)
		tr := obs.NewTracer(0)
		d.injector().SetTracer(tr)
		_, _ = chaosMutexScenario(t, d, 4)
		return tr.Events(), d.injector().Stats()
	}
	events1, stats1 := run(42)
	events2, stats2 := run(42)
	if len(events1) == 0 {
		t.Fatal("no fault events: the plan injected nothing")
	}
	if !slices.Equal(events1, events2) {
		t.Fatalf("same plan + seed produced different fault events (%d vs %d)", len(events1), len(events2))
	}
	if stats1 != stats2 {
		t.Fatalf("same plan + seed produced different fault stats: %+v vs %+v", stats1, stats2)
	}
	if events3, _ := run(43); slices.Equal(events1, events3) {
		t.Fatal("plan seeds 42 and 43 produced identical fault events: the seed is inert")
	}
}

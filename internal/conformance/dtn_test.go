package conformance

// Store-carry-forward conformance: the custody subsystem (internal/dtn)
// rides the same engine on every substrate, so parked traffic must drain
// exactly once and in per-pair FIFO order regardless of how the bytes
// move underneath — and under chaos weather the replicating strategies
// must beat the paper's park-at-MSS control without ever breaking the
// exactly-once guarantee. `make chaos-dtn` runs the TestChaosDTN tests
// under the race detector.

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/dtn"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/sim"
)

// newManager attaches a custody manager to the driver's registrar during
// the build phase.
func newManager(t *testing.T, d driver, cfg dtn.Config) *dtn.Manager {
	t.Helper()
	mgr, err := dtn.New(d.registrar(), cfg)
	if err != nil {
		t.Fatalf("dtn.New: %v", err)
	}
	return mgr
}

// TestConformanceDTNReconnectAfterManyMoves: a host crosses three cells,
// disconnects, a stream parks for it, and it reconnects in yet another
// cell — the parked traffic must drain completely and in FIFO order on
// every substrate.
func TestConformanceDTNReconnectAfterManyMoves(t *testing.T) {
	const k = 16
	forEachSubstrate(t, 4, 2, func(t *testing.T, d driver) {
		var received []int
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			if at == 1 {
				received = append(received, msg.(int))
			}
		}}
		ctx := d.registrar().Register(p)
		mgr := newManager(t, d, dtn.Config{}) // park-at-MSS, no TTL
		d.start()
		// mh1 starts at mss1 (round-robin); cross three cells, then vanish.
		d.move(1, 2)
		d.pause(t)
		d.move(1, 3)
		d.pause(t)
		d.move(1, 0)
		d.pause(t)
		d.disconnect(1)
		d.pause(t)
		d.do(func() {
			for i := 0; i < k; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
		d.settle(t)
		var parked, early int
		d.do(func() {
			parked = mgr.StoredTotal()
			early = len(received)
		})
		if parked != k {
			t.Fatalf("parked %d bundles while disconnected, want %d", parked, k)
		}
		if early != 0 {
			t.Fatalf("%d messages delivered while disconnected", early)
		}
		d.reconnect(1, 2) // two cells from where it disconnected
		d.settle(t)
		var snap []int
		var st dtn.Stats
		d.do(func() {
			snap = append(snap, received...)
			st = mgr.Stats()
		})
		if len(snap) != k {
			t.Fatalf("received %d messages after reconnect, want %d", len(snap), k)
		}
		for i, v := range snap {
			if v != i {
				t.Fatalf("received[%d] = %d, want %d (FIFO violated across custody)", i, v, i)
			}
		}
		if st.Accepted != k || st.Delivered != k || st.Failed != 0 {
			t.Errorf("custody stats = %+v, want %d accepted and delivered", st, k)
		}
	})
}

// TestChaosDTNExactlyOnceUnderLoss: the epidemic strategy replicates
// parked bundles between stations, the wireless weather drops and
// duplicates frames, and the destination still receives the stream
// exactly once, in order, on every substrate.
func TestChaosDTNExactlyOnceUnderLoss(t *testing.T) {
	const k = 12
	forEachSubstrateFaults(t, 4, 2, lossyPlan(), func(t *testing.T, d driver) {
		var received []int
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			if at == 1 {
				received = append(received, msg.(int))
			}
		}}
		ctx := d.registrar().Register(p)
		mgr := newManager(t, d, dtn.Config{Strategy: dtn.Epidemic{Every: 60}})
		d.start()
		d.disconnect(1)
		d.pause(t)
		d.do(func() {
			for i := 0; i < k; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
		// Two bounded pauses let custody land and gossip spread replicas
		// (a full settle would never come: gossip re-arms while parked).
		d.pause(t)
		d.pause(t)
		d.reconnect(1, 3)
		d.settle(t)
		var snap []int
		var st dtn.Stats
		d.do(func() {
			snap = append(snap, received...)
			st = mgr.Stats()
		})
		if len(snap) != k {
			t.Fatalf("received %d messages, want exactly %d (exactly-once violated)", len(snap), k)
		}
		for i, v := range snap {
			if v != i {
				t.Fatalf("received[%d] = %d, want %d (FIFO violated under loss)", i, v, i)
			}
		}
		if st.Delivered != k || st.Failed != 0 {
			t.Errorf("custody stats = %+v, want %d delivered, 0 failed", st, k)
		}
	})
}

// TestChaosDTNDeliveryRatio compares the three strategies under the same
// deterministic fault plan — a crash of the custodian station while the
// destination is away: park-at-MSS loses everything the crash wipes,
// while epidemic and spray-and-wait have replicas elsewhere and deliver
// the full stream. The replication cost (transfers) is what they pay.
func TestChaosDTNDeliveryRatio(t *testing.T) {
	const k = 6
	run := func(strategy dtn.RoutingAlgorithm) (delivered, failed, transfers int64, got int) {
		cfg := core.DefaultConfig(4, 1)
		cfg.Wireless = core.FixedDelay(2)
		cfg.Wired = core.FixedDelay(3)
		cfg.Travel = core.FixedDelay(5)
		cfg.Faults = &core.FaultPlan{
			Crashes: []core.Crash{{MSS: 2, At: 300, RestartAt: 400}},
		}
		sys := core.MustNewSystem(cfg)
		var deliveries []core.Message
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			deliveries = append(deliveries, msg)
		}}
		ctx := sys.Register(p)
		mgr, err := dtn.New(sys, dtn.Config{Strategy: strategy})
		if err != nil {
			t.Fatalf("dtn.New: %v", err)
		}
		sys.Injector().Arm()
		// Build mobility history (spray targets recently visited cells),
		// then vanish in cell 2 — the station the plan later crashes.
		sys.Schedule(10, func() { _ = sys.Move(0, 1) })
		sys.Schedule(40, func() { _ = sys.Move(0, 2) })
		sys.Schedule(70, func() { _ = sys.Disconnect(0) })
		sys.Schedule(110, func() {
			for i := 0; i < k; i++ {
				ctx.SendToMH(0, 0, i, cost.CatAlgorithm)
			}
		})
		// One more message after the custodian restarts: even park can
		// deliver this one, pinning the baseline above zero.
		sys.Schedule(450, func() { ctx.SendToMH(0, 0, "late", cost.CatAlgorithm) })
		sys.Schedule(600, func() {
			if err := sys.Reconnect(0, 3, true); err != nil {
				t.Errorf("Reconnect: %v", err)
			}
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("Run(%s): %v", strategy.Name(), err)
		}
		st := mgr.Stats()
		return st.Delivered, st.Failed, st.Transfers, len(deliveries)
	}

	parkDel, parkFail, _, parkGot := run(dtn.Park{})
	epiDel, epiFail, epiTx, epiGot := run(dtn.Epidemic{Every: 50})
	sprayDel, sprayFail, sprayTx, sprayGot := run(dtn.SprayAndWait{})

	// The crash wipes park's only copies: baseline delivers just the
	// post-restart message.
	if parkDel != 1 || parkGot != 1 || parkFail != int64(k) {
		t.Errorf("park: delivered=%d got=%d failed=%d, want 1/1/%d", parkDel, parkGot, parkFail, k)
	}
	if epiDel != int64(k+1) || epiGot != k+1 || epiFail != 0 {
		t.Errorf("epidemic: delivered=%d got=%d failed=%d, want %d/%d/0", epiDel, epiGot, epiFail, k+1, k+1)
	}
	if sprayDel != int64(k+1) || sprayGot != k+1 || sprayFail != 0 {
		t.Errorf("spray: delivered=%d got=%d failed=%d, want %d/%d/0", sprayDel, sprayGot, sprayFail, k+1, k+1)
	}
	if epiDel <= parkDel || sprayDel <= parkDel {
		t.Errorf("replicating strategies (%d, %d) must beat the park baseline (%d)", epiDel, sprayDel, parkDel)
	}
	if epiTx == 0 || sprayTx == 0 {
		t.Errorf("replication cost: epidemic=%d spray=%d transfers, want > 0", epiTx, sprayTx)
	}
}

// TestChaosDTNTokenRecovery re-runs the token-recovery chaos scenario
// with the custody subsystem enabled: attaching DTN must not perturb the
// recovery protocol — still exactly one regeneration, still exactly-once
// service — because custody only engages for disconnected hosts, and
// this scenario has none.
func TestChaosDTNTokenRecovery(t *testing.T) {
	const (
		m            = 4
		n            = 8
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
		mgr := newManager(t, d, dtn.Config{})
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
		var regens int64
		var snapEntries map[core.MHID]int
		var snapMax int
		var st dtn.Stats
		d.do(func() {
			regens = r2.Regenerations()
			snapEntries = make(map[core.MHID]int, len(entries))
			for mh, c := range entries {
				snapEntries[mh] = c
			}
			snapMax = maxHolders
			st = mgr.Stats()
		})
		if regens != 1 {
			t.Errorf("token regenerations = %d with DTN enabled, want exactly 1", regens)
		}
		if snapMax > 1 {
			t.Errorf("max simultaneous CS holders = %d, want <= 1", snapMax)
		}
		for _, mh := range []core.MHID{0, 1, 3} {
			if got := snapEntries[mh]; got != 1 {
				t.Errorf("mh%d entered the critical section %d times, want 1", int(mh), got)
			}
		}
		if st.Accepted != 0 {
			t.Errorf("custody stats = %+v, want no custody activity without disconnections", st)
		}
	})
}

package dtn

import (
	"reflect"
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/obs"
)

// probe records deliveries and failure notifications for the test
// traffic riding over the custody layer.
type probe struct {
	got   []engine.Message
	fails []engine.Message
}

func (p *probe) Name() string { return "probe" }
func (p *probe) HandleMH(ctx engine.Context, at engine.MHID, msg engine.Message) {
	p.got = append(p.got, msg)
}
func (p *probe) OnDeliveryFailure(ctx engine.Context, at engine.MSSID, mh engine.MHID, msg engine.Message, reason engine.FailReason) {
	p.fails = append(p.fails, msg)
}

// fixedSys builds a deterministic simulator system with a probe and a
// custody manager attached.
func fixedSys(t *testing.T, cfg core.Config, dcfg Config) (*core.System, *probe, engine.Context, *Manager) {
	t.Helper()
	cfg.Wireless = core.FixedDelay(2)
	cfg.Wired = core.FixedDelay(3)
	cfg.Travel = core.FixedDelay(5)
	sys := core.MustNewSystem(cfg)
	p := &probe{}
	ctx := sys.Register(p)
	mgr, err := New(sys, dcfg)
	if err != nil {
		t.Fatalf("dtn.New: %v", err)
	}
	return sys, p, ctx, mgr
}

// TestParkDeliversAfterReconnect is the core custody scenario: messages
// routed to a disconnected host park at its last station and drain, in
// order, when it reconnects in a different cell.
func TestParkDeliversAfterReconnect(t *testing.T) {
	sys, p, ctx, mgr := fixedSys(t, core.DefaultConfig(3, 1), Config{})
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(10, func() {
		ctx.SendToMH(1, 0, "a", cost.CatAlgorithm)
		ctx.SendToMH(1, 0, "b", cost.CatAlgorithm)
		ctx.SendToMH(1, 0, "c", cost.CatAlgorithm)
	})
	sys.Schedule(50, func() {
		if err := sys.Reconnect(0, 2, true); err != nil {
			t.Fatalf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []engine.Message{"a", "b", "c"}; !reflect.DeepEqual(p.got, want) {
		t.Fatalf("deliveries = %v, want %v", p.got, want)
	}
	if len(p.fails) != 0 {
		t.Fatalf("failures = %v, want none", p.fails)
	}
	st := mgr.Stats()
	if st.Accepted != 3 || st.Delivered != 3 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 3 accepted, 3 delivered", st)
	}
	if mgr.StoredTotal() != 0 {
		t.Fatalf("StoredTotal = %d after drain, want 0", mgr.StoredTotal())
	}
}

// TestParkTTLExpiryNotifiesSender pins the terminal path: a parked
// bundle whose TTL passes before the host returns is dropped and the
// origin gets the base protocol's delivery-failure notification.
func TestParkTTLExpiryNotifiesSender(t *testing.T) {
	sys, p, ctx, mgr := fixedSys(t, core.DefaultConfig(2, 1), Config{TTL: 50})
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(10, func() { ctx.SendToMH(1, 0, "late", cost.CatAlgorithm) })
	sys.Schedule(300, func() {
		if err := sys.Reconnect(0, 1, true); err != nil {
			t.Fatalf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.got) != 0 {
		t.Fatalf("deliveries = %v, want none (TTL expired)", p.got)
	}
	if want := []engine.Message{"late"}; !reflect.DeepEqual(p.fails, want) {
		t.Fatalf("failures = %v, want %v", p.fails, want)
	}
	st := mgr.Stats()
	if st.Expired != 1 || st.Failed != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 expired, 1 failed", st)
	}
}

// TestQuotaRefusalFallsBackToFailure: when the per-MH quota is full the
// custody offer is refused and the engine's ordinary failure
// notification reaches the sender immediately.
func TestQuotaRefusalFallsBackToFailure(t *testing.T) {
	sys, p, ctx, mgr := fixedSys(t, core.DefaultConfig(2, 1), Config{MHQuota: 1})
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(10, func() {
		ctx.SendToMH(1, 0, "first", cost.CatAlgorithm)
		ctx.SendToMH(1, 0, "second", cost.CatAlgorithm)
	})
	sys.Schedule(100, func() {
		if err := sys.Reconnect(0, 1, true); err != nil {
			t.Fatalf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []engine.Message{"first"}; !reflect.DeepEqual(p.got, want) {
		t.Fatalf("deliveries = %v, want %v", p.got, want)
	}
	if want := []engine.Message{"second"}; !reflect.DeepEqual(p.fails, want) {
		t.Fatalf("failures = %v, want %v", p.fails, want)
	}
	st := mgr.Stats()
	if st.Accepted != 1 || st.DroppedQuota != 1 {
		t.Fatalf("stats = %+v, want 1 accepted, 1 quota drop", st)
	}
}

// TestEpidemicSurvivesCustodianCrash: gossip replicates parked bundles
// to neighbouring stations, so wiping the original custodian loses no
// traffic — the replicas deliver at reconnection. The same scenario
// under Park would lose everything.
func TestEpidemicSurvivesCustodianCrash(t *testing.T) {
	cfg := core.DefaultConfig(4, 1)
	cfg.Faults = &core.FaultPlan{Crashes: []core.Crash{{MSS: 0, At: 300, RestartAt: 400}}}
	sys, p, ctx, mgr := fixedSys(t, cfg, Config{Strategy: Epidemic{Every: 50}})
	inj := sys.Injector()
	inj.OnCrash(mgr.NoteCrash)
	inj.OnRestart(mgr.NoteRestart)
	inj.Arm()
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(30, func() {
		ctx.SendToMH(2, 0, "x", cost.CatAlgorithm)
		ctx.SendToMH(2, 0, "y", cost.CatAlgorithm)
	})
	sys.Schedule(500, func() {
		if err := sys.Reconnect(0, 2, true); err != nil {
			t.Fatalf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.got) != 2 {
		t.Fatalf("deliveries = %v, want both messages despite the custodian crash", p.got)
	}
	if len(p.fails) != 0 {
		t.Fatalf("failures = %v, want none", p.fails)
	}
	st := mgr.Stats()
	if st.Delivered != 2 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 2 delivered, 0 failed", st)
	}
	if st.Lost == 0 {
		t.Fatalf("stats = %+v, want crash-wiped replicas counted in Lost", st)
	}
	if st.SummariesSent == 0 || st.Transfers == 0 {
		t.Fatalf("stats = %+v, want anti-entropy activity", st)
	}
}

// TestSprayReplicatesAlongVisitHistory: binary spray-and-wait places
// replicas in the destination's recently visited cells, halving the
// token budget at each hop, and the replication cost surfaces in the
// bundle-copies histogram.
func TestSprayReplicatesAlongVisitHistory(t *testing.T) {
	tr := obs.NewTracer(0).WithMetrics(obs.NewMetrics())
	cfg := core.DefaultConfig(4, 1)
	cfg.Obs = tr
	sys, p, ctx, mgr := fixedSys(t, cfg, Config{Strategy: SprayAndWait{}, SprayCopies: 4})
	sys.Schedule(10, func() { _ = sys.Move(0, 1) })
	sys.Schedule(40, func() { _ = sys.Move(0, 2) })
	sys.Schedule(70, func() { _ = sys.Disconnect(0) })
	sys.Schedule(100, func() { ctx.SendToMH(3, 0, "sprayed", cost.CatAlgorithm) })
	sys.Schedule(300, func() {
		if err := sys.Reconnect(0, 3, true); err != nil {
			t.Fatalf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []engine.Message{"sprayed"}; !reflect.DeepEqual(p.got, want) {
		t.Fatalf("deliveries = %v, want %v", p.got, want)
	}
	st := mgr.Stats()
	// Custody at cell 2, sprayed to cell 1 (2 tokens), then on to cell 0
	// (1 token): three replicas total, two of which dedupe at delivery.
	if st.Accepted != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want 1 accepted, 1 delivered", st)
	}
	if st.Duplicates != 2 {
		t.Fatalf("stats = %+v, want 2 duplicate replicas discarded", st)
	}
	ms := tr.MetricsSnapshot()
	if ms.BundleCopies.Count() != 1 || ms.BundleCopies.Max() != 3 {
		t.Fatalf("bundle-copies histogram n=%d max=%d, want n=1 max=3",
			ms.BundleCopies.Count(), ms.BundleCopies.Max())
	}
	if ms.BundleCustodyTicks.Count() != 1 {
		t.Fatalf("bundle-custody-ticks n=%d, want 1", ms.BundleCustodyTicks.Count())
	}
}

// TestCrashReapsInflightTransfer pins the in-flight reap: a custody
// transfer travelling toward a station that crashes mid-flight is
// discarded by the fault injector before HandleMSS ever runs, so the
// manager must loss-account it at NoteCrash. Without the reap the
// bundle's in-flight count never drains, its terminal obligations never
// fire, and the (MH1,MH0) pair wedges — the post-restart send "m2"
// would never deliver.
func TestCrashReapsInflightTransfer(t *testing.T) {
	cfg := core.DefaultConfig(2, 2)
	// Reconnect at 300: uplink 300→302, handoff req 302→305, reply
	// 305→308, join at 308 fires DeliverAll — the custody transfer is
	// on the wire 308→311. Crashing the receiver at 310 catches it.
	cfg.Faults = &core.FaultPlan{Crashes: []core.Crash{{MSS: 1, At: 310, RestartAt: 400}}}
	sys, p, ctx, mgr := fixedSys(t, cfg, Config{})
	inj := sys.Injector()
	inj.OnCrash(mgr.NoteCrash)
	inj.OnRestart(mgr.NoteRestart)
	inj.Arm()
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(10, func() {
		if err := ctx.SendMHToMH(1, 0, "m1", cost.CatAlgorithm); err != nil {
			t.Errorf("SendMHToMH m1: %v", err)
		}
	})
	sys.Schedule(300, func() {
		if err := sys.Reconnect(0, 1, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	sys.Schedule(500, func() {
		if err := ctx.SendMHToMH(1, 0, "m2", cost.CatAlgorithm); err != nil {
			t.Errorf("SendMHToMH m2: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// m1's only copy died on the wire into the crash; m2 must still
	// deliver — the reap released m1's pair sequence slot.
	if want := []engine.Message{"m2"}; !reflect.DeepEqual(p.got, want) {
		t.Fatalf("deliveries = %v, want %v (pair slot released by the reap)", p.got, want)
	}
	st := mgr.Stats()
	if st.Accepted != 1 || st.Delivered != 0 || st.Lost != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 accepted, 1 lost in flight, 1 failed", st)
	}
	if mgr.StoredTotal() != 0 || mgr.inFlightTotal != 0 {
		t.Fatalf("stored=%d inflight=%d after reap, want 0/0",
			mgr.StoredTotal(), mgr.inFlightTotal)
	}
	if got := sys.Stats().FailedDeliveries; got != 1 {
		t.Fatalf("FailedDeliveries = %d, want 1 (m1 abandoned)", got)
	}
}

// TestFailCustodyTombstonesWithOriginDown pins send-time pair-slot
// release: a parked bundle expires while its origin station is crashed,
// so the failure notification is discarded in flight. The pair sequence
// slot must be freed at send time regardless, or every later ordered
// message of the pair wedges behind the hole.
func TestFailCustodyTombstonesWithOriginDown(t *testing.T) {
	cfg := core.DefaultConfig(2, 2)
	cfg.Faults = &core.FaultPlan{Crashes: []core.Crash{{MSS: 1, At: 100, RestartAt: 200}}}
	sys, p, ctx, mgr := fixedSys(t, cfg, Config{TTL: 50})
	inj := sys.Injector()
	inj.OnCrash(mgr.NoteCrash)
	inj.OnRestart(mgr.NoteRestart)
	inj.Arm()
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	// Custody at mss0 with origin mss1; the TTL passes at ~62.
	sys.Schedule(10, func() {
		if err := ctx.SendMHToMH(1, 0, "m1", cost.CatAlgorithm); err != nil {
			t.Errorf("SendMHToMH m1: %v", err)
		}
	})
	// Reconnecting at 150 drains the store, finds m1 expired, and sends
	// the failure notification into the origin's crash window.
	sys.Schedule(150, func() {
		if err := sys.Reconnect(0, 0, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	sys.Schedule(300, func() {
		if err := ctx.SendMHToMH(1, 0, "m2", cost.CatAlgorithm); err != nil {
			t.Errorf("SendMHToMH m2: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []engine.Message{"m2"}; !reflect.DeepEqual(p.got, want) {
		t.Fatalf("deliveries = %v, want %v (slot tombstoned at send time)", p.got, want)
	}
	st := mgr.Stats()
	if st.Expired != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 expired, 1 failed", st)
	}
	// The notification itself died with the origin down: no failure
	// callback fired, and that must not matter for pair progress.
	if len(p.fails) != 0 {
		t.Fatalf("failures = %v, want none (notification discarded)", p.fails)
	}
}

// TestExpiredDuplicateCountsAsDuplicate pins acceptBundle's admission
// order: an expired replica arriving where an (equally expired) copy is
// already resident is one duplicate, not an extra expiry — the resident
// copy's sweep is the single place that bundle's expiry is accounted.
func TestExpiredDuplicateCountsAsDuplicate(t *testing.T) {
	sys, _, ctx, mgr := fixedSys(t, core.DefaultConfig(2, 1), Config{TTL: 100})
	if err := sys.Disconnect(0); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(10, func() { ctx.SendToMH(1, 0, "parked", cost.CatAlgorithm) })
	var cp Bundle
	sys.Schedule(50, func() {
		ids := mgr.StoredAt(0)
		if len(ids) != 1 {
			t.Errorf("StoredAt(0) = %v, want 1 parked bundle", ids)
			return
		}
		cp = *mgr.stores[0].Get(ids[0])
	})
	// Well past the TTL, a late replica of the same bundle arrives at
	// the station still holding it.
	sys.Schedule(200, func() { mgr.acceptBundle(0, &cp) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := mgr.Stats()
	if st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1 (resident copy wins)", st.Duplicates)
	}
	if st.Expired != 0 {
		t.Fatalf("Expired = %d, want 0 (no sweep ran; the arrival must not count it)", st.Expired)
	}
	if !mgr.stores[0].Has(cp.ID) {
		t.Fatalf("resident replica vanished; the duplicate arrival must leave it in place")
	}
}

// TestWaiterOverflowHandsCustody: with a bounded waiter queue and the
// custody layer attached, routed messages beyond the in-transit queue
// limit become bundles instead of drops, and everything still delivers
// after the join.
func TestWaiterOverflowHandsCustody(t *testing.T) {
	cfg := core.DefaultConfig(2, 1)
	cfg.WaiterLimit = 1
	cfg.Wireless = core.FixedDelay(2)
	cfg.Wired = core.FixedDelay(3)
	// A long transit keeps mh0 between cells while the sends arrive.
	cfg.Travel = core.FixedDelay(100)
	sys := core.MustNewSystem(cfg)
	p := &probe{}
	ctx := sys.Register(p)
	mgr, err := New(sys, Config{})
	if err != nil {
		t.Fatalf("dtn.New: %v", err)
	}
	sys.Schedule(5, func() { _ = sys.Move(0, 1) })
	sys.Schedule(20, func() {
		ctx.SendToMH(0, 0, "q1", cost.CatAlgorithm)
		ctx.SendToMH(0, 0, "q2", cost.CatAlgorithm)
		ctx.SendToMH(0, 0, "q3", cost.CatAlgorithm)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.got) != 3 {
		t.Fatalf("deliveries = %v, want all 3 (overflow takes custody)", p.got)
	}
	if got := sys.Stats().WaiterDrops; got != 0 {
		t.Fatalf("WaiterDrops = %d, want 0 with custody attached", got)
	}
	if st := mgr.Stats(); st.Accepted != 2 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want 2 overflow bundles accepted and delivered", st)
	}
}

// TestRetiredSetDrainsIntoWatermark pins the bound on the retired set:
// IDs are dense, so once every bundle below a retired one has settled
// the explicit entry folds into the watermark, and a settled run holds
// no per-bundle retirement state at all.
func TestRetiredSetDrainsIntoWatermark(t *testing.T) {
	sys, p, ctx, mgr := fixedSys(t, core.DefaultConfig(3, 3), Config{Strategy: Epidemic{Every: 50}, TTL: 400})
	for mh := core.MHID(0); mh < 2; mh++ {
		if err := sys.Disconnect(mh); err != nil {
			t.Fatalf("Disconnect: %v", err)
		}
	}
	sys.Schedule(10, func() {
		ctx.SendToMH(2, 0, "a", cost.CatAlgorithm) // bundle 1
		ctx.SendToMH(2, 1, "b", cost.CatAlgorithm) // bundle 2
		ctx.SendToMH(2, 0, "c", cost.CatAlgorithm) // bundle 3
	})
	// mh1 returns first: bundle 2 retires above the still-live bundle 1,
	// so it has to sit in the explicit set.
	sys.Schedule(100, func() {
		if err := sys.Reconnect(1, 2, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	sys.Schedule(200, func() {
		if !mgr.isRetired(2) || mgr.isRetired(1) || mgr.isRetired(3) {
			t.Errorf("mid-run: retired(1,2,3) = %v %v %v, want only 2", mgr.isRetired(1), mgr.isRetired(2), mgr.isRetired(3))
		}
		if mgr.retiredUpTo != 0 || len(mgr.retired) != 1 {
			t.Errorf("mid-run: watermark %d with %d explicit entries, want 0 and 1", mgr.retiredUpTo, len(mgr.retired))
		}
	})
	// mh0 never returns: bundles 1 and 3 expire, closing the gap.
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []engine.Message{"b"}; !reflect.DeepEqual(p.got, want) {
		t.Fatalf("deliveries = %v, want %v", p.got, want)
	}
	if st := mgr.Stats(); st.Accepted != 3 || st.Delivered != 1 || st.Failed != 2 {
		t.Fatalf("stats = %+v, want 3 accepted, 1 delivered, 2 failed", st)
	}
	if len(mgr.retired) != 0 || mgr.retiredUpTo != mgr.nextID-1 {
		t.Fatalf("settled: %d explicit retired entries, watermark %d, next ID %d; want none and watermark = next-1",
			len(mgr.retired), mgr.retiredUpTo, mgr.nextID)
	}
	if len(mgr.resident) != 0 || mgr.storedTotal != 0 || len(mgr.copies) != 0 || len(mgr.inflight) != 0 {
		t.Fatalf("settled: ledgers hold resident=%d stored=%d copies=%d inflight=%d, want all empty",
			len(mgr.resident), mgr.storedTotal, len(mgr.copies), len(mgr.inflight))
	}
}

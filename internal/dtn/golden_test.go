package dtn

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/custody_golden.txt from this run")

// goldenSink swallows the scenario's traffic; the trace and the counters
// are what the golden pins.
type goldenSink struct{}

func (goldenSink) Name() string                                         { return "golden-sink" }
func (goldenSink) HandleMH(engine.Context, engine.MHID, engine.Message) {}
func (goldenSink) OnDeliveryFailure(engine.Context, engine.MSSID, engine.MHID, engine.Message, engine.FailReason) {
}

// runCustodyGolden drives the one seeded scenario that reaches every
// store path no other trace pins: LRU eviction at a full store, Touch on
// want, per-MH quota refusal, TTL expiry mid-run, and a station crash
// that wipes a store and reaps the replicas on the wire toward it.
func runCustodyGolden(t *testing.T, strategy RoutingAlgorithm) (string, *Manager) {
	t.Helper()
	const (
		m, n   = 8, 64
		seed   = 7
		chains = 8
		nOps   = 3200
	)
	type op struct {
		wait sim.Time
		kind int
		mh   engine.MHID
		mss  engine.MSSID
	}
	rng := sim.NewRNG(seed)
	ops := make([]op, nOps)
	for i := range ops {
		ops[i] = op{
			wait: sim.Time(rng.Intn(16) + 1),
			kind: rng.Intn(8),
			mh:   engine.MHID(rng.Intn(n)),
			mss:  engine.MSSID(rng.Intn(m)),
		}
	}

	tr := obs.NewTracer(0)
	cfg := core.DefaultConfig(m, n)
	cfg.Seed = seed
	cfg.Obs = tr
	lossy := core.LinkFaults{Drop: 0.05}
	cfg.Faults = &core.FaultPlan{
		Seed: seed, Down: lossy, Up: lossy,
		Crashes: []core.Crash{{MSS: 3, At: 1500, RestartAt: 1900}},
	}
	sys := core.MustNewSystem(cfg)
	ctx := sys.Register(goldenSink{})
	mgr, err := New(sys, Config{Strategy: strategy, TTL: 500, StoreCap: 24, MHQuota: 2})
	if err != nil {
		t.Fatalf("dtn.New: %v", err)
	}
	inj := sys.Injector()
	inj.OnCrash(mgr.NoteCrash)
	inj.OnRestart(mgr.NoteRestart)
	inj.Arm()

	apply := func(i int) {
		o := ops[i]
		_, status := sys.Where(o.mh)
		switch {
		case o.kind >= 3:
			ctx.SendToMH(o.mss, o.mh, i, cost.CatAlgorithm)
		case o.kind == 2:
			// A move feeds the visit history spray-and-wait aims at.
			if status == core.StatusConnected {
				_ = sys.Move(o.mh, o.mss)
			}
		case status == core.StatusConnected:
			_ = sys.Disconnect(o.mh)
		case status == core.StatusDisconnected:
			_ = sys.Reconnect(o.mh, o.mss, true)
		}
	}
	var inject func(i int)
	inject = func(i int) {
		apply(i)
		if next := i + chains; next < len(ops) {
			sys.Schedule(ops[next].wait, func() { inject(next) })
		}
	}
	for c := 0; c < chains; c++ {
		c := c
		sys.Schedule(ops[c].wait, func() { inject(c) })
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	st := mgr.Stats()
	// The scenario is only worth pinning while it reaches the paths it
	// exists for.
	if st.EvictedLRU == 0 || st.DroppedQuota == 0 || st.Expired == 0 || st.Lost == 0 || st.Transfers == 0 {
		t.Errorf("%s: scenario no longer reaches eviction, quota refusal, expiry, crash loss and transfer: %+v", strategy.Name(), st)
	}
	h := sha256.New()
	snap := tr.Snapshot()
	if err := snap.WriteJSONL(h); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return fmt.Sprintf("%s\n  dtn    %+v stored=%d\n  engine %+v\n  obs    events=%d sha256=%x\n",
		strategy.Name(), st, mgr.StoredTotal(), sys.Stats(), len(snap.Events), h.Sum(nil)), mgr
}

// TestCustodyGolden reproduces, byte for byte, the counters and the event
// stream recorded from the map-and-sort store this package started with:
// every order the trace can observe (ascending-ID sweeps, drains, reaps
// and want-lists; LRU eviction and Touch order) is part of the store's
// contract, whatever its layout.
func TestCustodyGolden(t *testing.T) {
	var got bytes.Buffer
	for _, strategy := range []RoutingAlgorithm{Epidemic{Every: 100}, SprayAndWait{}} {
		report, mgr := runCustodyGolden(t, strategy)
		got.WriteString(report)
		checkLedger(t, mgr)
	}
	path := filepath.Join("testdata", "custody_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (record it with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("custody scenario diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}

// checkLedger holds the manager's resident ledger to what its stores
// actually contain: the per-bundle counts and the total that replaced
// probing every station are only as good as put and remove being the
// sole doors.
func checkLedger(t *testing.T, mgr *Manager) {
	t.Helper()
	resident := make(map[BundleID]int)
	total := 0
	for _, s := range mgr.stores {
		for _, id := range s.IDs() {
			resident[id]++
			total++
		}
	}
	if total != mgr.storedTotal || total != mgr.StoredTotal() {
		t.Errorf("%s: stores hold %d replicas, ledger total %d", mgr.Name(), total, mgr.storedTotal)
	}
	if len(resident) != len(mgr.resident) {
		t.Errorf("%s: %d bundles resident, ledger has %d", mgr.Name(), len(resident), len(mgr.resident))
	}
	for id, n := range resident {
		if mgr.resident[id] != n {
			t.Errorf("%s: bundle %d resident at %d stations, ledger says %d", mgr.Name(), id, n, mgr.resident[id])
		}
	}
}

package workload

import (
	"reflect"
	"runtime"
	"testing"

	"mobiledist/internal/core"
)

// TestScaleScenarioDeterministic pins the generator contract: the same
// config produces a byte-identical scenario, including at N=10^5.
func TestScaleScenarioDeterministic(t *testing.T) {
	cfg := ScaleConfig{N: 100_000, M: 1000, Seed: 42, Kind: ScaleRoute, Ops: 100_000}
	a, err := GenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("same config produced different op streams")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same config produced different fingerprints")
	}
	cfg.Seed = 43
	c, err := GenScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced the same fingerprint")
	}
	for i, op := range a.Ops[:100] {
		if op.Wait < 1 || op.Wait > 16 {
			t.Fatalf("op %d wait %d outside [1,16]", i, op.Wait)
		}
		if int(op.MH) < 0 || int(op.MH) >= cfg.N || int(op.MSS) < 0 || int(op.MSS) >= cfg.M {
			t.Fatalf("op %d operands out of range: %+v", i, op)
		}
	}
}

func TestScaleConfigValidation(t *testing.T) {
	bad := []ScaleConfig{
		{N: 0, M: 10, Kind: ScaleRoute, Ops: 1},
		{N: 10, M: 0, Kind: ScaleRoute, Ops: 1},
		{N: 10, M: 10, Kind: ScaleRoute, Ops: 0},
		{N: 10, M: 10, Kind: ScaleKind(99), Ops: 1},
		{N: 10, M: 10, Kind: ScaleRoute, Ops: 1, Chains: -1},
	}
	for i, cfg := range bad {
		if _, err := GenScale(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestScaleSmoke is the short-mode N=10^4 run of each scale suite kind: the
// scenario must complete on both the timing-wheel and sharded kernels with
// identical results — the workload-level face of the golden-trace contract.
func TestScaleSmoke(t *testing.T) {
	for _, kind := range []ScaleKind{ScaleRoute, ScaleChurn, ScaleSearchChase} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sc, err := GenScale(ScaleConfig{N: 10_000, M: 100, Seed: 7, Kind: kind, Ops: 5000, Chains: 2000})
			if err != nil {
				t.Fatal(err)
			}
			results := make([]ScaleResult, 2)
			for i, shards := range []int{1, 64} {
				sys, err := NewScaleSystem(sc, shards)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunScale(sys, sc)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				results[i] = res
			}
			if results[0] != results[1] {
				t.Fatalf("wheel and sharded runs diverged:\n%+v\n%+v", results[0], results[1])
			}
			res := results[0]
			if res.Injected != int64(len(sc.Ops)) {
				t.Errorf("injected %d of %d ops", res.Injected, len(sc.Ops))
			}
			if res.Messages == 0 || res.Steps == 0 || res.Elapsed == 0 {
				t.Errorf("degenerate run: %+v", res)
			}
			if kind != ScaleChurn && res.Delivered == 0 {
				t.Errorf("no deliveries: %+v", res)
			}
		})
	}
}

// TestRunScaleAllocsFlatInOps is RunScale's allocation contract: at fixed N
// and Chains, a run of 40k ops mallocs no more than one of 10k, plus a
// per-kind slack. The record pool, the waiter arena and the wheel's chunks
// grow with the pending population, which the chain count bounds, not with
// ops; the chains themselves are cursors, not one closure per op. The chase
// kind's slack is ChanTable's downlink overflow: a host gains an entry the
// first time each cell transmits to it, so those allocations are bounded by
// M·N and taper off, but have not all happened by 10k ops.
func TestRunScaleAllocsFlatInOps(t *testing.T) {
	for _, c := range []struct {
		cfg   ScaleConfig
		slack uint64 // extra mallocs allowed from 10k to 40k ops
	}{
		{ScaleConfig{N: 2000, M: 20, Seed: 5, Kind: ScaleRoute, Chains: 500}, 64},
		{ScaleConfig{N: 500, M: 4, Seed: 5, Kind: ScaleSearchChase, Chains: 200}, 1500}, // < 0.05 per op
		{ScaleConfig{N: 500, M: 10, Seed: 5, Kind: ScaleChurn, Chains: 200}, 64},
	} {
		mallocs := func(ops int) uint64 {
			cfg := c.cfg
			cfg.Ops = ops
			sc, err := GenScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewScaleSystem(sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunScale(sys, sc); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		small, large := mallocs(10_000), mallocs(40_000)
		t.Logf("%v: %d mallocs at 10k ops, %d at 40k", c.cfg.Kind, small, large)
		if large > small+c.slack {
			t.Errorf("%v: RunScale mallocs grow with ops: %d at 10k ops, %d at 40k (slack %d)", c.cfg.Kind, small, large, c.slack)
		}
	}
}

// TestScaleChurnProgress checks the churn kind actually cycles connectivity.
func TestScaleChurnProgress(t *testing.T) {
	sc, err := GenScale(ScaleConfig{N: 500, M: 10, Seed: 3, Kind: ScaleChurn, Ops: 2000, Chains: 200})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewScaleSystem(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScale(sys, sc); err != nil {
		t.Fatal(err)
	}
	stats := sys.Stats()
	if stats.Disconnects == 0 || stats.Reconnects == 0 {
		t.Fatalf("churn made no progress: %+v", stats)
	}
	// Every host must end settled, not wedged mid-protocol.
	for mh := 0; mh < sc.Cfg.N; mh++ {
		if _, status := sys.Where(core.MHID(mh)); status == core.StatusInTransit {
			t.Fatalf("mh%d left in transit", mh)
		}
	}
}

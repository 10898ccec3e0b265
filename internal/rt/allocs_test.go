package rt

import (
	"testing"

	"mobiledist/internal/core"
)

// benchAlg is a no-op algorithm so the allocation test measures the
// runtime, not handler work.
type benchAlg struct{}

func (benchAlg) Name() string { return "bench" }
func (benchAlg) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
}
func (benchAlg) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {}
func (benchAlg) OnDeliveryFailure(ctx core.Context, at core.MSSID, mh core.MHID, msg core.Message, reason core.FailReason) {
}

// TestSteadyStateMembershipAllocFree proves the engine-side membership reads
// on the routing hot path — cell membership tests and full LocalMHs scans —
// allocate nothing. Before the engine port, the live runtime kept membership
// in a map and LocalMHs allocated and insertion-sorted a fresh slice per
// call; the engine's sorted-slice state makes both a plain read.
func TestSteadyStateMembershipAllocFree(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(4, 32))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// Pre-Start the build phase is single-threaded, so contexts are safe to
	// use directly.
	ctx := sys.Register(benchAlg{})
	allocs := testing.AllocsPerRun(200, func() {
		for mss := 0; mss < 4; mss++ {
			ids := ctx.LocalMHs(core.MSSID(mss))
			for _, id := range ids {
				if !ctx.IsLocal(core.MSSID(mss), id) {
					t.Fatal("member not local")
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("membership reads allocated %v times per run, want 0", allocs)
	}
}

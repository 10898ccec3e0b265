package core

import (
	"testing"

	"mobiledist/internal/cost"
)

// TestARQChannelIDsAbove2To31 sends twice on a downlink whose flat channel
// id (M*M + mss*N + mh, about 3.2e9 here) does not fit 32 bits. A record
// that narrows the id acks against the wrong channel's state: the first
// frame stays outstanding forever and the second never leaves the sender
// queue. The second case runs the same two sends under a fault plan that
// drops 30% of wireless frames both ways, so the injector keeps per-channel
// state at those ids too and the acks that get through must still find
// their channel after retransmissions (seed pinned to one that drops).
func TestARQChannelIDsAbove2To31(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  *FaultPlan
		lossy bool
	}{
		{name: "lossless"},
		{name: "30% drop", plan: &FaultPlan{Seed: 1, Down: LinkFaults{Drop: 0.3}, Up: LinkFaults{Drop: 0.3}}, lossy: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(40000, 40000)
			cfg.ReliableWireless = true
			cfg.Faults = tc.plan
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			p := &probe{}
			ctx := sys.Register(p)
			for _, msg := range []string{"first", "second"} {
				if err := ctx.SendToLocalMH(39999, 39999, msg, cost.CatAlgorithm); err != nil {
					t.Fatalf("SendToLocalMH(%q): %v", msg, err)
				}
			}
			if err := sys.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(p.mhGot) != 2 || p.mhGot[0].Msg != "first" || p.mhGot[1].Msg != "second" {
				t.Errorf("mh39999 received %+v, want first then second", p.mhGot)
			}
			if live := sys.Engine().LiveRecs(); live != 0 {
				t.Errorf("LiveRecs = %d at quiescence, want 0 (a frame is still outstanding)", live)
			}
			if r := sys.Stats().Retransmits; (r > 0) != tc.lossy {
				t.Errorf("Retransmits = %d, want > 0 exactly on the lossy link", r)
			}
		})
	}
}

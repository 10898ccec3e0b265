package core

import (
	"testing"

	"mobiledist/internal/cost"
)

// TestARQChannelIDsAbove2To31 sends twice on a downlink whose flat channel
// id (M*M + mss*N + mh, about 3.2e9 here) does not fit 32 bits. A record
// that narrows the id acks against the wrong channel's state: the first
// frame stays outstanding forever and the second never leaves the sender
// queue. It is also the one test that runs the ARQ link table's sparse
// (above engine.DenseChannelLimit) storage.
func TestARQChannelIDsAbove2To31(t *testing.T) {
	cfg := DefaultConfig(40000, 40000)
	cfg.ReliableWireless = true
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
	if r := sys.Stats().Retransmits; r != 0 {
		t.Errorf("Retransmits = %d on a lossless link, want 0", r)
	}
}

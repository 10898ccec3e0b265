package core

import (
	"bytes"
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
)

// runTracedWorkload runs a fixed mobility-plus-messaging workload against a
// fresh seeded system with its own tracer and returns the canonical JSONL
// encoding of the captured trace.
func runTracedWorkload(t *testing.T, seed uint64) []byte {
	t.Helper()
	tracer := obs.NewTracer(0)
	cfg := DefaultConfig(3, 4)
	cfg.Seed = seed
	cfg.Obs = tracer
	sys := MustNewSystem(cfg)
	p := &probe{}
	ctx := sys.Register(p)

	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(50, func() {
		ctx.SendToMH(0, 3, "y", cost.CatAlgorithm)
	})
	sys.Schedule(500, func() {
		if err := sys.Reconnect(1, 0, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	sys.Schedule(600, func() { _ = sys.Move(3, 0) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	var buf bytes.Buffer
	if err := tracer.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestObsTraceIsDeterministic(t *testing.T) {
	a := runTracedWorkload(t, 11)
	b := runTracedWorkload(t, 11)
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Error("two runs with the same seed produced different traces")
	}
	if c := runTracedWorkload(t, 12); bytes.Equal(a, c) {
		t.Error("different seeds produced identical traces (tracer not wired to the run?)")
	}
}

func TestObsEventsMatchStats(t *testing.T) {
	tracer := obs.NewTracer(0).WithMetrics(obs.NewMetrics())
	cfg := DefaultConfig(3, 4)
	cfg.Obs = tracer
	sys := MustNewSystem(cfg)
	sys.Register(&probe{})

	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(100, func() {
		if err := sys.Reconnect(1, 2, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	stats := sys.Stats()
	snap := tracer.MetricsSnapshot()
	for _, tc := range []struct {
		kind string
		want int64
	}{
		{"leave", stats.Moves}, // reconnects don't leave: the MH detached at disconnect time
		{"disconnect", stats.Disconnects},
		{"reconnect", stats.Reconnects},
		{"search", stats.Searches},
	} {
		if got := int64(snap.Counts[tc.kind]); got != tc.want {
			t.Errorf("event count %q = %d, want %d (Stats: %+v)", tc.kind, got, tc.want, stats)
		}
	}
	if tr := tracer.Snapshot(); tr.M != 3 || tr.N != 4 {
		t.Errorf("tracer topology = (%d, %d), want (3, 4)", tr.M, tr.N)
	}
}

func TestDefaultTracerAttachesToDefaultConfig(t *testing.T) {
	tracer := obs.NewTracer(0)
	SetDefaultTracer(tracer)
	defer SetDefaultTracer(nil)
	if DefaultTracer() != tracer {
		t.Fatal("DefaultTracer did not return the installed tracer")
	}
	cfg := DefaultConfig(2, 2)
	if cfg.Obs != tracer {
		t.Error("DefaultConfig did not pick up the default tracer")
	}
	sys := MustNewSystem(cfg)
	if err := sys.Move(1, 0); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tracer.MetricsSnapshot().Total == 0 {
		t.Error("system built from DefaultConfig recorded no events")
	}
}

// TestTransmitIsTracedBeforeTheInjectorSeesIt: under a drop plan, the
// engine's EvTransmit for a wireless frame comes before the injector's
// EvDrop of it. The injector numbers each channel's transmissions from 0,
// so a drop of index i on a channel must follow exactly i+1 EvTransmit
// events on that channel.
func TestTransmitIsTracedBeforeTheInjectorSeesIt(t *testing.T) {
	tracer := obs.NewTracer(0)
	cfg := DefaultConfig(3, 6)
	cfg.Obs = tracer
	cfg.Faults = &FaultPlan{Seed: 5, Down: LinkFaults{Drop: 0.3}, Up: LinkFaults{Drop: 0.3}}
	sys := MustNewSystem(cfg)
	ctx := sys.Register(&probe{})
	for i := 0; i < 20; i++ {
		ctx.SendToMH(MSSID(i%3), MHID(i%6), i, cost.CatAlgorithm)
		if err := ctx.SendFromMH(MHID(i%6), i, cost.CatAlgorithm); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	transmits := make(map[int32]int32)
	drops := 0
	for _, ev := range tracer.Events() {
		switch ev.Kind {
		case obs.EvTransmit:
			transmits[ev.A]++
		case obs.EvDrop:
			drops++
			if transmits[ev.A] != ev.B+1 {
				t.Fatalf("drop of ch%d index %d after %d EvTransmit on it, want %d", ev.A, ev.B, transmits[ev.A], ev.B+1)
			}
		}
	}
	if drops == 0 {
		t.Fatal("the plan dropped nothing; the test proves nothing")
	}
}

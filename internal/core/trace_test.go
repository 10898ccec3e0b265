package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

func TestTraceEmitsMobilityAndSearchEvents(t *testing.T) {
	cfg := DefaultConfig(3, 4)
	cfg.Obs = obs.NewTracer(0)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p := &probe{}
	ctx := sys.Register(p)

	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(50, func() {
		ctx.SendToMH(0, 1, "x", cost.CatAlgorithm) // fails: disconnected
		ctx.SendToMH(0, 3, "y", cost.CatAlgorithm) // delivered
	})
	sys.Schedule(500, func() {
		if err := sys.Reconnect(1, 0, true); err != nil {
			t.Errorf("Reconnect: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	events := cfg.Obs.Events()
	seen := make(map[obs.EventKind]bool)
	var last sim.Time = -1
	for _, ev := range events {
		seen[ev.Kind] = true
		if ev.T < last {
			t.Fatalf("trace timestamps decreased:\n%s", strings.Join(obs.Lines(events, true), "\n"))
		}
		last = ev.T
	}
	for _, want := range []obs.EventKind{obs.EvLeave, obs.EvJoin, obs.EvDisconnect, obs.EvReconnect, obs.EvHandoff, obs.EvSearch, obs.EvFailure} {
		if !seen[want] {
			t.Errorf("trace missing %v events:\n%s", want, strings.Join(obs.Lines(events, true), "\n"))
		}
	}
}

// TestShardedSystemGoldenTrace pins the sharded kernel's determinism
// contract at the system level: the same seeded run must produce a
// byte-identical observability trace, cost report, and stats regardless of
// the kernel's shard count. This is the golden-trace regression guarding
// every data-structure change under ScheduleKeyed.
func TestShardedSystemGoldenTrace(t *testing.T) {
	run := func(shards int) (traceBytes []byte, report string, stats Stats) {
		tr := obs.NewTracer(0)
		cfg := DefaultConfig(8, 64)
		cfg.Shards = shards
		cfg.Obs = tr
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem(shards=%d): %v", shards, err)
		}
		p := &probe{}
		ctx := sys.Register(p)

		// A mixed workload touching every scheduling path: routed sends
		// (keyed Transmit), moves and disconnects (waiters, zero-delay
		// enqueues), broadcasts, and MH-to-MH traffic.
		rng := sys.Kernel().RNG().Fork()
		for i := 0; i < 40; i++ {
			i := i
			sys.Schedule(sim.Time(1+rng.Intn(200)), func() {
				switch i % 4 {
				case 0:
					ctx.SendToMH(MSSID(i%8), MHID((i*7)%64), i, cost.CatAlgorithm)
				case 1:
					if err := sys.Move(MHID((i*5)%64), MSSID((i+3)%8)); err != nil {
						t.Errorf("Move: %v", err)
					}
				case 2:
					ctx.BroadcastFixed(MSSID(i%8), i, cost.CatControl)
				case 3:
					_ = ctx.SendMHToMH(MHID(i%64), MHID((i*11)%64), i, cost.CatAlgorithm)
				}
			})
		}
		sys.Schedule(30, func() {
			if err := sys.Disconnect(9); err != nil {
				t.Errorf("Disconnect: %v", err)
			}
		})
		sys.Schedule(400, func() {
			if err := sys.Reconnect(9, 3, true); err != nil {
				t.Errorf("Reconnect: %v", err)
			}
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		b, err := tr.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		return b, sys.Meter().Report(cfg.Params), sys.Stats()
	}

	golden, goldenReport, goldenStats := run(1)
	if len(golden) == 0 {
		t.Fatal("golden trace is empty")
	}
	for _, shards := range []int{8, 64} {
		got, report, stats := run(shards)
		if !bytes.Equal(got, golden) {
			t.Errorf("shards=%d trace differs from single-heap golden trace (%d vs %d bytes)", shards, len(got), len(golden))
		}
		if report != goldenReport {
			t.Errorf("shards=%d cost report differs:\n%s\nwant:\n%s", shards, report, goldenReport)
		}
		if fmt.Sprintf("%+v", stats) != fmt.Sprintf("%+v", goldenStats) {
			t.Errorf("shards=%d stats differ: %+v vs %+v", shards, stats, goldenStats)
		}
	}
}

func TestTraceNilIsSilent(t *testing.T) {
	sys, _, _ := newProbeSystem(t, 3, 3)
	// No trace configured: nothing to assert beyond "does not panic".
	if err := sys.Move(0, 1); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

package core

import (
	"testing"

	"mobiledist/internal/cost"
)

// These tests are the allocation contract of the delivery-record refactor:
// once a system reaches steady state (pools populated, kernel heaps grown,
// per-pair FIFO state created), moving messages allocates nothing — every
// deferred delivery is a pooled value-state record, not a heap closure.

// benchAlg is a no-op algorithm so the allocation tests measure the
// network layer, not handler work.
type benchAlg struct{}

func (benchAlg) Name() string                                            { return "bench" }
func (benchAlg) HandleMSS(ctx Context, at MSSID, from From, msg Message) {}
func (benchAlg) HandleMH(ctx Context, at MHID, msg Message)              {}
func (benchAlg) OnDeliveryFailure(ctx Context, at MSSID, mh MHID, msg Message, reason FailReason) {
}

// routeSystem builds a small fault-free system and warms it up with enough
// traffic that every lazily-created structure on the routed path exists.
func routeSystem(t testing.TB, m, n int) (*System, Context) {
	t.Helper()
	cfg := DefaultConfig(m, n)
	cfg.StepLimit = 1 << 62
	sys := MustNewSystem(cfg)
	ctx := sys.Register(benchAlg{})
	return sys, ctx
}

func TestRoutedMessagePathZeroAllocs(t *testing.T) {
	const m, n = 8, 64
	sys, ctx := routeSystem(t, m, n)
	// A fixed pair set so the lazily-created per-pair FIFO states saturate
	// during warmup; the steady-state claim is about moving messages, not
	// about first contact between a pair.
	round := func() {
		for j := 0; j < 64; j++ {
			from := MHID(j % n)
			to := MHID((j + 1) % n)
			if err := ctx.SendMHToMH(from, to, 7, cost.CatAlgorithm); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // steady state: pools, pair maps, kernel heaps
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("steady-state routed-message round allocated %.1f objects, want 0", allocs)
	}
	if live := sys.Engine().LiveRecs(); live != 0 {
		t.Errorf("%d delivery records live after quiescence, want 0", live)
	}
}

func TestStaleReroutePathZeroAllocs(t *testing.T) {
	const m, n = 4, 8
	sys, ctx := routeSystem(t, m, n)
	round := func() {
		// Put a wireless downlink in flight to the host's current cell,
		// then move it away before the transmission lands: the arrival
		// finds the host gone, reclassifies the wasted transmission, and
		// takes the stale-reroute branch (which parks on the in-transit
		// host and replays after the join).
		at, _ := sys.Where(0)
		ctx.SendToMH(at, 0, 7, cost.CatAlgorithm)
		if err := sys.Move(0, MSSID((int(at)+1)%m)); err != nil {
			t.Fatal(err)
		}
		ctx.SendToMH(MSSID((int(at)+2)%m), 0, 7, cost.CatAlgorithm)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	before := sys.Stats()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("steady-state move-and-route round allocated %.1f objects, want 0", allocs)
	}
	after := sys.Stats()
	if after.Moves <= before.Moves {
		t.Error("rounds performed no moves — the test is not exercising mobility")
	}
	if after.StaleReroutes == 0 {
		t.Error("no stale reroutes over the whole test — the race never fired")
	}
	if live := sys.Engine().LiveRecs(); live != 0 {
		t.Errorf("%d delivery records live after quiescence, want 0", live)
	}
}

func TestARQRetransmitPathZeroAllocs(t *testing.T) {
	const m, n = 4, 8
	cfg := DefaultConfig(m, n)
	cfg.StepLimit = 1 << 62
	cfg.Faults = &FaultPlan{
		Seed: 7,
		Down: LinkFaults{Drop: 0.3, Duplicate: 0.1, Reorder: 0.1},
		Up:   LinkFaults{Drop: 0.3},
	}
	sys := MustNewSystem(cfg)
	ctx := sys.Register(benchAlg{})
	rng := sys.Kernel().RNG()
	round := func() {
		for j := 0; j < 16; j++ {
			if err := ctx.SendMHToMH(MHID(rng.Intn(n)), MHID(rng.Intn(n)), 7, cost.CatAlgorithm); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	before := sys.Stats()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("steady-state lossy-wireless round allocated %.1f objects, want 0", allocs)
	}
	after := sys.Stats()
	if after.Retransmits <= before.Retransmits {
		t.Error("rounds performed no retransmissions — the ARQ path is not exercised")
	}
	if after.WirelessDrops <= before.WirelessDrops {
		t.Error("rounds dropped nothing — the fault plan is not exercised")
	}
	if live := sys.Engine().LiveRecs(); live != 0 {
		t.Errorf("%d delivery records live after quiescence, want 0", live)
	}
}

// TestChaosPlanRecyclesAllRecords is the pool-leak witness: a full chaos
// plan (loss, duplication, reordering, a cell flap, a crash with restart)
// with traffic racing churn must return every delivery record to the free
// list by quiescence — drops and crash discards free, duplicates clone,
// ARQ frees payloads on ack, waiters drain on join.
func TestChaosPlanRecyclesAllRecords(t *testing.T) {
	const m, n = 4, 16
	cfg := DefaultConfig(m, n)
	cfg.StepLimit = 1 << 62
	cfg.Faults = &FaultPlan{
		Seed:    99,
		Down:    LinkFaults{Drop: 0.2, Duplicate: 0.15, Reorder: 0.1},
		Up:      LinkFaults{Drop: 0.2, Duplicate: 0.1, Reorder: 0.05},
		Flaps:   []Flap{{MSS: 1, From: 200, Until: 400}},
		Crashes: []Crash{{MSS: 2, At: 300, RestartAt: 600}},
	}
	sys := MustNewSystem(cfg)
	ctx := sys.Register(benchAlg{})
	rng := sys.Kernel().RNG()
	for i := 0; i < 400; i++ {
		mh := MHID(rng.Intn(n))
		switch _, status := sys.Where(mh); status {
		case StatusConnected:
			if rng.Intn(5) == 0 {
				_ = sys.Disconnect(mh)
			} else {
				_ = sys.Move(mh, MSSID(rng.Intn(m)))
			}
		case StatusDisconnected:
			_ = sys.Reconnect(mh, MSSID(rng.Intn(m)), rng.Intn(2) == 0)
		}
		_ = ctx.SendMHToMH(MHID(rng.Intn(n)), MHID(rng.Intn(n)), i, cost.CatAlgorithm)
		if i%37 == 0 {
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reconnect every disconnected host so parked waiter records drain.
	for mh := 0; mh < n; mh++ {
		if _, status := sys.Where(MHID(mh)); status == StatusDisconnected {
			_ = sys.Reconnect(MHID(mh), MSSID(mh%m), true)
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	fs := sys.Injector().Stats()
	if fs.WirelessDrops == 0 || fs.WirelessDuplicates == 0 || st.Retransmits == 0 {
		t.Errorf("chaos plan injected nothing (drops=%d dups=%d retransmits=%d)",
			fs.WirelessDrops, fs.WirelessDuplicates, st.Retransmits)
	}
	if fs.CrashDiscards == 0 {
		t.Logf("note: crash window discarded no wired traffic this seed (discards=%d)", fs.CrashDiscards)
	}
	if live := sys.Engine().LiveRecs(); live != 0 {
		t.Errorf("%d delivery records leaked (not returned to the pool) after quiescence", live)
	}
}

package conformance

import (
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/ring"
)

// probe is a minimal algorithm giving scenarios a Context and delivery
// hooks. Hooks run on the substrate's execution context.
type probe struct {
	onMH func(ctx core.Context, at core.MHID, msg core.Message)
}

func (p *probe) Name() string { return "conformance-probe" }

func (p *probe) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {}

func (p *probe) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {
	if p.onMH != nil {
		p.onMH(ctx, at, msg)
	}
}

// runMutexScenario drives the R2 token mutex with k requesters over two
// traversals and returns per-MH critical-section entry counts plus the
// maximum number of simultaneous holders observed.
func runMutexScenario(t *testing.T, d driver, k int) (entries map[core.MHID]int, maxHolders int) {
	t.Helper()
	entries = make(map[core.MHID]int)
	holders := 0
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
	}
	r2, err := ring.NewR2(d.registrar(), ring.VariantCounter, opts, 2, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	d.start()
	d.do(func() {
		for i := 0; i < k; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
	})
	d.pause(t) // let the requests reach their stations
	d.do(func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	d.settle(t)
	// Snapshot on the execution context so reads don't race the executor.
	var snapEntries map[core.MHID]int
	var snapMax int
	d.do(func() {
		snapEntries = make(map[core.MHID]int, len(entries))
		for mh, c := range entries {
			snapEntries[mh] = c
		}
		snapMax = maxHolders
	})
	return snapEntries, snapMax
}

// TestConformanceSingleCSHolder: under the R2 token mutex, no two mobile
// hosts are ever inside the critical section at once — on either substrate.
func TestConformanceSingleCSHolder(t *testing.T) {
	forEachSubstrate(t, 5, 10, func(t *testing.T, d driver) {
		_, maxHolders := runMutexScenario(t, d, 4)
		if maxHolders != 1 {
			t.Errorf("max simultaneous CS holders = %d, want 1", maxHolders)
		}
	})
}

// TestConformanceTokenGrantUniqueness: the single circulating token grants
// each pending request exactly once — no request is lost or served twice.
func TestConformanceTokenGrantUniqueness(t *testing.T) {
	const k = 4
	forEachSubstrate(t, 5, 10, func(t *testing.T, d driver) {
		entries, _ := runMutexScenario(t, d, k)
		for i := 0; i < k; i++ {
			if got := entries[core.MHID(i)]; got != 1 {
				t.Errorf("mh%d entered the critical section %d times, want 1", i, got)
			}
		}
		if len(entries) != k {
			t.Errorf("%d distinct MHs entered, want %d", len(entries), k)
		}
	})
}

// TestConformancePerPairFIFO: messages between one ordered MH pair are
// delivered in send order on both substrates.
func TestConformancePerPairFIFO(t *testing.T) {
	const k = 24
	forEachSubstrate(t, 3, 6, func(t *testing.T, d driver) {
		var received []int
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			if at == 1 {
				received = append(received, msg.(int))
			}
		}}
		ctx := d.registrar().Register(p)
		d.start()
		d.do(func() {
			for i := 0; i < k; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
		d.settle(t)
		var snap []int
		d.do(func() { snap = append(snap, received...) })
		if len(snap) != k {
			t.Fatalf("received %d messages, want %d", len(snap), k)
		}
		for i, v := range snap {
			if v != i {
				t.Fatalf("received[%d] = %d, want %d (FIFO violated)", i, v, i)
			}
		}
	})
}

// TestConformancePrefixDeliveryAcrossMoves: a stream sent to a MH that moves
// twice mid-stream still arrives complete and in order — the paper's prefix
// semantics: what is delivered is always a prefix of what was sent, and
// after the network settles the prefix is the whole stream.
func TestConformancePrefixDeliveryAcrossMoves(t *testing.T) {
	const batch = 8
	forEachSubstrate(t, 3, 6, func(t *testing.T, d driver) {
		var received []int
		p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
			if at == 1 {
				received = append(received, msg.(int))
			}
		}}
		ctx := d.registrar().Register(p)
		d.start()
		send := func(from, to int) {
			d.do(func() {
				for i := from; i < to; i++ {
					if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
						t.Errorf("SendMHToMH: %v", err)
					}
				}
			})
		}
		send(0, batch)
		d.move(1, 2) // mh1 starts at mss1 (round-robin); race the stream
		send(batch, 2*batch)
		d.pause(t)
		d.move(1, 0)
		send(2*batch, 3*batch)
		d.settle(t)
		var snap []int
		d.do(func() { snap = append(snap, received...) })
		if len(snap) != 3*batch {
			t.Fatalf("received %d messages, want %d (stream lost across moves)", len(snap), 3*batch)
		}
		for i, v := range snap {
			if v != i {
				t.Fatalf("received[%d] = %d, want %d (prefix order violated)", i, v, i)
			}
		}
	})
}

// TestConformanceMobilityStatePartitioning: after churn settles, every MH is
// in exactly one cell's local list XOR exactly one cell's disconnected set —
// never both, never more than one of either.
func TestConformanceMobilityStatePartitioning(t *testing.T) {
	const (
		m = 4
		n = 8
	)
	forEachSubstrate(t, m, n, func(t *testing.T, d driver) {
		ctx := d.registrar().Register(&probe{})
		d.start()
		d.move(0, 3)
		d.disconnect(1)
		d.move(2, 0)
		d.disconnect(3)
		d.pause(t)
		d.reconnect(1, 2) // reconnect in a different cell than it left
		d.move(0, 1)
		d.settle(t)
		d.do(func() {
			for mh := 0; mh < n; mh++ {
				localIn, discIn := 0, 0
				for mss := 0; mss < m; mss++ {
					if ctx.IsLocal(core.MSSID(mss), core.MHID(mh)) {
						localIn++
					}
					if ctx.IsDisconnectedHere(core.MSSID(mss), core.MHID(mh)) {
						discIn++
					}
				}
				if localIn > 1 || discIn > 1 || localIn+discIn != 1 {
					t.Errorf("mh%d: member of %d local lists and %d disconnected sets, want exactly one of exactly one",
						mh, localIn, discIn)
				}
			}
		})
		st := d.stats()
		if st.Moves != 3 || st.Disconnects != 2 || st.Reconnects != 1 {
			t.Errorf("stats = %d moves / %d disconnects / %d reconnects, want 3/2/1",
				st.Moves, st.Disconnects, st.Reconnects)
		}
	})
}

// TestConformanceTimers: timers are delivery records like all other parked
// work, on every substrate, with the fault injector in the stack. A
// Context.After callback fires exactly once and holds the network's idle
// predicate open while armed; an armed Context.AfterDaemon does not, and
// still fires; both are counted by LiveRecs until they do; and a crash
// plan's OnCrash/OnRestart hooks, armed through the same record path, fire
// once each. The counters are plain ints read inside do, so under -race a
// callback that ran off the execution context would be reported.
func TestConformanceTimers(t *testing.T) {
	const (
		afterDelay = 150 // inside the simulator's 200-tick pause
		// daemonDelay is far enough out (half a second of wall time on the
		// live substrates) that pause returning before it fires is not a
		// matter of scheduling luck.
		daemonDelay = 10_000
	)
	plan := &core.FaultPlan{Seed: 5, Crashes: []core.Crash{{MSS: 1, At: 40, RestartAt: 120}}}
	forEachSubstrateFaults(t, 2, 2, plan, func(t *testing.T, d driver) {
		ctx := d.registrar().Register(&probe{})
		var fired, daemonFired, crashes, restarts int
		daemonDone := make(chan struct{})
		d.start()
		d.do(func() {
			inj := d.injector()
			inj.OnCrash(func(core.MSSID) { crashes++ })
			inj.OnRestart(func(core.MSSID) { restarts++ })
			inj.Arm()
			ctx.AfterDaemon(daemonDelay, func() { daemonFired++; close(daemonDone) })
			ctx.After(afterDelay, func() { fired++ })
			if live := d.engine().LiveRecs(); live != 4 {
				t.Errorf("LiveRecs with four timers armed = %d, want 4", live)
			}
		})
		d.pause(t)
		d.do(func() {
			if fired != 1 {
				t.Errorf("After fired %d times by the time the network went idle, want 1", fired)
			}
			if crashes != 1 || restarts != 1 {
				t.Errorf("crash/restart hooks fired %d/%d times, want 1/1", crashes, restarts)
			}
			if daemonFired != 0 {
				t.Errorf("AfterDaemon fired %d times before its delay; the idle wait must not have waited for it", daemonFired)
			}
			if live := d.engine().LiveRecs(); live != 1 {
				t.Errorf("LiveRecs with only the daemon timer armed = %d, want 1", live)
			}
		})
		d.settle(t) // sim: runs the daemon timer; live: already idle
		select {
		case <-daemonDone:
		case <-time.After(idleTimeout):
			t.Fatal("AfterDaemon never fired")
		}
		d.do(func() {
			if fired != 1 || daemonFired != 1 {
				t.Errorf("After/AfterDaemon fired %d/%d times, want 1/1", fired, daemonFired)
			}
			if live := d.engine().LiveRecs(); live != 0 {
				t.Errorf("LiveRecs after every timer fired = %d, want 0", live)
			}
		})
	})
}

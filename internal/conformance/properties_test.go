package conformance

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/sim"
)

// probe is a minimal algorithm giving scenarios a Context and delivery
// hooks. Hooks run on the substrate's execution context.
type probe struct {
	onMH    func(ctx core.Context, at core.MHID, msg core.Message)
	onTimer func(ctx core.Context, msg core.Message)
}

func (p *probe) Name() string { return "conformance-probe" }

func (p *probe) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {}

func (p *probe) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {
	if p.onMH != nil {
		p.onMH(ctx, at, msg)
	}
}

func (p *probe) HandleTimer(ctx core.Context, msg core.Message) {
	if p.onTimer != nil {
		p.onTimer(ctx, msg)
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

// crashLog is an algorithm that implements only core.CrashObserver and
// core.RestartObserver. It
// appends each notification, prefixed with its tag, to a journal it may
// share with other observers, and, when given a context, keeps the
// virtual time each one arrived at.
type crashLog struct {
	tag     string
	journal *[]string
	ctx     core.Context
	at      []sim.Time
}

func (c *crashLog) Name() string { return "crash-log" }

func (c *crashLog) NoteCrash(mss core.MSSID) { c.note("crash", mss) }

func (c *crashLog) NoteRestart(mss core.MSSID) { c.note("restart", mss) }

func (c *crashLog) note(what string, mss core.MSSID) {
	*c.journal = append(*c.journal, fmt.Sprintf("%s%s mss%d", c.tag, what, int(mss)))
	if c.ctx != nil {
		c.at = append(c.at, c.ctx.Now())
	}
}

// TestCrashNewsNeedsNoWiring: an algorithm that implements only NoteCrash
// and NoteRestart hears of every crash and restart the plan arms, once
// each, at its planned instant, with nothing wired beyond Register and
// Arm; two such observers hear each instant in registration order. The
// simulator lands each notification exactly on its instant, a live
// substrate never before it.
func TestCrashNewsNeedsNoWiring(t *testing.T) {
	plan := &core.FaultPlan{Seed: 5, Crashes: []core.Crash{
		{MSS: 1, At: 40, RestartAt: 120},
		{MSS: 0, At: 60}, // never restarts
	}}
	wantJournal := []string{
		"a:crash mss1", "b:crash mss1",
		"a:crash mss0", "b:crash mss0",
		"a:restart mss1", "b:restart mss1",
	}
	wantAt := []sim.Time{40, 60, 120}
	forEachSubstrateFaults(t, 2, 2, plan, func(t *testing.T, d driver) {
		var journal []string
		first := &crashLog{tag: "a:", journal: &journal}
		second := &crashLog{tag: "b:", journal: &journal}
		first.ctx = d.registrar().Register(first)
		second.ctx = d.registrar().Register(second)
		d.start()
		d.do(func() { d.injector().Arm() })
		d.settle(t)
		d.do(func() {
			if !reflect.DeepEqual(journal, wantJournal) {
				t.Fatalf("observers heard %v, want %v", journal, wantJournal)
			}
			for _, log := range []*crashLog{first, second} {
				for i, at := range log.at {
					if at < wantAt[i] || (d.name() == "sim" && at != wantAt[i]) {
						t.Errorf("%s heard %s at t=%d, planned for t=%d", log.tag, wantJournal[2*i], at, wantAt[i])
					}
				}
			}
		})
	})
}

// timerTick is the message TestConformanceTimers sends itself.
type timerTick struct {
	Kind string
	Seq  int
}

// TestConformanceTimers: timers are delivery records like all other parked
// work, on every substrate, with the fault injector in the stack. A timer
// is a message the algorithm sends itself: Context.After's message reaches
// HandleTimer unchanged, exactly once, and holds the network's idle
// predicate open while armed; an armed Context.AfterDaemon does not, and
// still fires — nor does one landing first let go of the After's hold; all
// are counted by LiveRecs until they fire; and a crash plan's crash and
// restart records, armed through the same path, reach a CrashObserver once
// each. After from an algorithm without HandleTimer panics at once, naming
// it. The counters are plain values read inside do, so under -race a
// handler that ran off the execution context would be reported.
func TestConformanceTimers(t *testing.T) {
	const (
		afterDelay = 190 // inside the simulator's 200-tick pause
		// earlyDelay puts a daemon timer after the plan's restart (120) and
		// before After: popping it must not resolve the op After holds, or
		// the live substrates go idle 60 ticks early.
		earlyDelay = 130
		// daemonDelay is far enough out (half a second of wall time on the
		// live substrates) that pause returning before it fires is not a
		// matter of scheduling luck.
		daemonDelay = 10_000
	)
	sent := map[string]timerTick{"after": {"after", 1}, "early": {"early", 2}, "daemon": {"daemon", 3}}
	plan := &core.FaultPlan{Seed: 5, Crashes: []core.Crash{{MSS: 1, At: 40, RestartAt: 120}}}
	forEachSubstrateFaults(t, 2, 2, plan, func(t *testing.T, d driver) {
		fired := make(map[string]int)
		daemonDone := make(chan struct{})
		ctx := d.registrar().Register(&probe{onTimer: func(_ core.Context, msg core.Message) {
			tick, ok := msg.(timerTick)
			if !ok || tick != sent[tick.Kind] {
				t.Errorf("HandleTimer got %#v, want one of the messages sent: %v", msg, sent)
				return
			}
			if fired[tick.Kind]++; tick.Kind == "daemon" {
				close(daemonDone)
			}
		}})
		var crashes []string
		noTimer := d.registrar().Register(&crashLog{journal: &crashes})
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, `"crash-log"`) {
					t.Errorf("After from an algorithm without HandleTimer panicked with %q, want a panic naming \"crash-log\"", r)
				}
			}()
			noTimer.After(afterDelay, sent["after"])
		}()
		d.start()
		d.do(func() {
			d.injector().Arm()
			ctx.AfterDaemon(daemonDelay, sent["daemon"])
			ctx.AfterDaemon(earlyDelay, sent["early"])
			ctx.After(afterDelay, sent["after"])
			if live := d.engine().LiveRecs(); live != 5 {
				t.Errorf("LiveRecs with five timers armed = %d, want 5", live)
			}
		})
		d.pause(t)
		d.do(func() {
			if fired["after"] != 1 || fired["early"] != 1 {
				t.Errorf("After/early AfterDaemon fired %d/%d times by the time the network went idle, want 1/1", fired["after"], fired["early"])
			}
			if want := []string{"crash mss1", "restart mss1"}; !reflect.DeepEqual(crashes, want) {
				t.Errorf("crash observer heard %v, want %v", crashes, want)
			}
			if fired["daemon"] != 0 {
				t.Errorf("AfterDaemon fired %d times before its delay; the idle wait must not have waited for it", fired["daemon"])
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
			if fired["after"] != 1 || fired["daemon"] != 1 {
				t.Errorf("After/AfterDaemon fired %d/%d times, want 1/1", fired["after"], fired["daemon"])
			}
			if live := d.engine().LiveRecs(); live != 0 {
				t.Errorf("LiveRecs after every timer fired = %d, want 0", live)
			}
		})
	})
}

package conformance

// Crash conformance: the network runtime's crash-recovery machinery —
// heartbeat liveness, generation-fenced resync, parked deliveries — driven
// against REAL process-style crashes: relay nodes are killed outright
// (every socket torn down, every goroutine gone) and replaced by fresh
// incarnations, while a seeded socket nemesis (internal/nemesis) keeps the
// surviving links under latency, stall, and reset weather. The invariants
// are the same ones the fault-free and chaos suites pin — per-pair FIFO,
// prefix delivery across moves, single CS holder, exactly one token
// regeneration — because crash recovery must change when things happen,
// never what the protocol does.
//
// These scenarios are net-substrate only: killing a process has no sim or
// live analogue (those substrates have no processes to kill — the model
// level covers them through internal/faults crash plans, see chaos_test.go).
//
// `make chaos-net` runs exactly these tests (the TestCrash prefix) plus the
// nemesis package's determinism suite, under the race detector.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/nemesis"
	"mobiledist/internal/netrt"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// crashNet is a loopback cluster with crash-test liveness clocks and an
// optional nemesis proxy fleet interposed between every dialler and
// listener via netrt's WrapAddr seam.
type crashNet struct {
	t  *testing.T
	lb *netrt.Loopback

	mu      sync.Mutex
	proxies []*nemesis.Proxy
}

// startCrashNet launches an m×n loopback cluster with tightened liveness
// timing (dead verdicts in ~150ms instead of the production half-second).
// planFor (nil: no nemesis) maps a dialled endpoint name ("hub", "mss0",
// ...) to a nemesis plan; returning a non-nil plan interposes a proxy on
// that address.
func startCrashNet(t *testing.T, m, n int, plan *core.FaultPlan, planFor func(name string) *nemesis.Plan) *crashNet {
	t.Helper()
	cn := &crashNet{t: t}
	cfg := netrt.DefaultConfig(m, n)
	cfg.Faults = plan
	cfg.HeartbeatEvery = 10 * time.Millisecond
	cfg.SuspectAfter = 2
	cfg.DeadAfter = 150 * time.Millisecond
	if planFor != nil {
		cfg.WrapAddr = func(name, addr string) string {
			p := planFor(name)
			if p == nil {
				return addr
			}
			px, err := nemesis.New(addr, *p)
			if err != nil {
				t.Fatalf("nemesis.New(%s): %v", name, err)
			}
			cn.mu.Lock()
			cn.proxies = append(cn.proxies, px)
			cn.mu.Unlock()
			return px.Addr()
		}
	}
	lb, err := netrt.StartLoopback(cfg)
	if err != nil {
		cn.stopProxies()
		t.Fatalf("netrt.StartLoopback: %v", err)
	}
	cn.lb = lb
	return cn
}

func (cn *crashNet) stopProxies() {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for _, px := range cn.proxies {
		px.Stop()
	}
}

func (cn *crashNet) stop() {
	cn.lb.Stop()
	cn.stopProxies()
}

// disturbances totals the socket-level disturbances the nemesis injected.
func (cn *crashNet) disturbances() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	total := 0
	for _, px := range cn.proxies {
		total += len(px.Disturbances())
	}
	return total
}

// waitState polls the hub's liveness verdict on peer (role, id).
func (cn *crashNet) waitState(role wire.Role, id int, want netrt.PeerState) {
	cn.t.Helper()
	deadline := time.Now().Add(idleTimeout)
	for time.Now().Before(deadline) {
		if cn.lb.Sys.PeerStateOf(role, id) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	cn.t.Fatalf("peer %v/%d never reached %v (now %v)",
		role, id, want, cn.lb.Sys.PeerStateOf(role, id))
}

func (cn *crashNet) ready() {
	cn.t.Helper()
	if !cn.lb.Sys.WaitReady(idleTimeout) {
		cn.t.Fatal("crash net: cluster did not become ready")
	}
}

func (cn *crashNet) settle() {
	cn.t.Helper()
	if !cn.lb.Sys.WaitIdle(idleTimeout) {
		cn.t.Fatalf("crash net: network did not drain\n%s\nnemesis log tail:\n%s",
			undrained(cn.lb.Sys), cn.disturbanceTail(8))
	}
}

// disturbanceTail formats the last n disturbances each nemesis proxy
// injected, one proxy per line, in the order the cluster dialled them.
func (cn *crashNet) disturbanceTail(n int) string {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	var b strings.Builder
	for i, px := range cn.proxies {
		log := px.Disturbances()
		tail := log[max(0, len(log)-n):]
		fmt.Fprintf(&b, "  proxy %d (%s), %d total: %v\n", i, px.Addr(), len(log), tail)
	}
	return b.String()
}

func (cn *crashNet) restartNode(i int) {
	cn.t.Helper()
	if err := cn.lb.RestartNode(i); err != nil {
		cn.t.Fatalf("RestartNode(%d): %v", i, err)
	}
}

// gentleNemesis is socket weather safe for every link class: latency on all
// bytes plus brief stalls everywhere, and connection resets on the hub's
// links only. Resets are confined to the hub because only hub links have a
// resync authority that replays frames lost in a severed connection's send
// buffer; mesh links between live stations retry unwritten frames but
// cannot recover buffered ones (DESIGN.md §11 records the limitation).
func gentleNemesis(seed uint64) func(name string) *nemesis.Plan {
	return func(name string) *nemesis.Plan {
		p := &nemesis.Plan{
			Seed:         seed,
			Quantum:      512,
			LatencyMinUS: 50,
			LatencyMaxUS: 400,
			StallProb:    0.02,
			StallUS:      2000,
		}
		if name == "hub" {
			p.ResetProb = 0.01
		}
		return p
	}
}

// TestCrashFIFOAcrossNodeRestart: an ordered MH→MH stream continues across
// the death and replacement of the receiver's serving station, with the
// nemesis disturbing every link the whole time. Exactly-once, in-order —
// the resync replay must fill the crash hole without duplicating what
// already arrived.
func TestCrashFIFOAcrossNodeRestart(t *testing.T) {
	const batch = 8
	cn := startCrashNet(t, 3, 6, nil, gentleNemesis(0xD15EA5E))
	defer cn.stop()

	var received []int
	p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
		if at == 1 {
			received = append(received, msg.(int))
		}
	}}
	ctx := cn.lb.Sys.Register(p)
	cn.lb.Sys.Start()
	cn.ready()

	send := func(from, to int) {
		cn.lb.Sys.Do(func() {
			for i := from; i < to; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
	}
	send(0, batch)
	cn.settle()

	// Round-robin placement puts mh1 in cell 1: kill its serving station.
	cn.lb.KillNode(1)
	cn.waitState(wire.RoleMSS, 1, netrt.PeerDead)
	send(batch, 2*batch) // wedges toward the dead cell until the resync
	cn.restartNode(1)
	cn.waitState(wire.RoleMSS, 1, netrt.PeerAlive)
	send(2*batch, 3*batch)
	cn.settle()

	var snap []int
	cn.lb.Sys.Do(func() { snap = append(snap, received...) })
	if len(snap) != 3*batch {
		t.Fatalf("received %d of %d messages across the crash", len(snap), 3*batch)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("received[%d] = %d, want %d (lost or double-applied)", i, v, i)
		}
	}
	if cn.disturbances() == 0 {
		t.Error("nemesis injected no disturbances during the run")
	}
}

// TestCrashPrefixAcrossMovesAndRestart: the prefix-delivery guarantee for a
// roaming receiver holds when the vacated station dies and is replaced
// mid-stream — and the cluster keeps serving traffic that doesn't touch
// the dead station while it is down.
func TestCrashPrefixAcrossMovesAndRestart(t *testing.T) {
	const batch = 8
	cn := startCrashNet(t, 3, 6, nil, gentleNemesis(0xBADCAB))
	defer cn.stop()

	var received []int
	p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
		if at == 1 {
			received = append(received, msg.(int))
		}
	}}
	ctx := cn.lb.Sys.Register(p)
	cn.lb.Sys.Start()
	cn.ready()

	send := func(from, to int) {
		cn.lb.Sys.Do(func() {
			for i := from; i < to; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
	}
	send(0, batch)
	cn.lb.Sys.Move(1, 2) // receiver roams out of cell 1
	send(batch, 2*batch)
	cn.settle()

	// The vacated station dies; the stream (now mss0 → mss2 → mh1) keeps
	// flowing around the hole, then the receiver moves home again once a
	// fresh incarnation is up.
	cn.lb.KillNode(1)
	cn.waitState(wire.RoleMSS, 1, netrt.PeerDead)
	send(2*batch, 3*batch)
	cn.restartNode(1)
	cn.waitState(wire.RoleMSS, 1, netrt.PeerAlive)
	cn.lb.Sys.Move(1, 1)
	send(3*batch, 4*batch)
	cn.settle()

	var snap []int
	cn.lb.Sys.Do(func() { snap = append(snap, received...) })
	if len(snap) != 4*batch {
		t.Fatalf("received %d of %d messages (stream lost across moves + crash)", len(snap), 4*batch)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("received[%d] = %d, want %d (prefix order violated)", i, v, i)
		}
	}
}

// TestCrashTokenRecoveryUnderNemesis is the full-stack version of
// TestChaosTokenRecovery: the model-level crash plan swallows the ring
// token at MSS 2 while the SAME station's relay process is killed at the
// socket level, with nemesis weather on every link. The R2 recovery
// sublayer must regenerate exactly one token, serve every live requester
// exactly once, and never break mutual exclusion — through real dead
// sockets, parked deliveries, and a generation-fenced restart.
func TestCrashTokenRecoveryUnderNemesis(t *testing.T) {
	const suspicionLag = sim.Time(2000)
	plan := &core.FaultPlan{
		Seed:    11,
		Crashes: []core.Crash{{MSS: 2, At: 1, RestartAt: 2500}},
	}
	cn := startCrashNet(t, 4, 8, plan, gentleNemesis(0x7EA))
	defer cn.stop()

	entries := make(map[core.MHID]int)
	holders, maxHolders := 0, 0
	inj := cn.lb.Sys.Injector()
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
		Recovery: &ring.TokenRecovery{
			ProbeEvery: 300,
			Timeout:    1000,
			Suspect: func(s core.MSSID, now sim.Time) bool {
				since, down := inj.DownSince(s)
				return down && now-since > suspicionLag
			},
		},
	}
	r2, err := ring.NewR2(cn.lb.Sys, ring.VariantCounter, opts, 4, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	cn.lb.Sys.Start()
	cn.ready()

	// Mirror the model-level crash at the socket level: the station's relay
	// process dies for real before the token ever reaches it.
	cn.lb.KillNode(2)
	cn.lb.Sys.Do(func() {
		inj.OnRestart(func(mss core.MSSID) { r2.NoteRestart(mss) })
		inj.Arm()
		// Requesters sit in live cells only (round-robin: mh0→mss0,
		// mh1→mss1, mh3→mss3), matching the protocol's scope.
		for _, mh := range []core.MHID{0, 1, 3} {
			if err := r2.Request(mh); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	cn.waitState(wire.RoleMSS, 2, netrt.PeerDead)
	// A fresh incarnation replaces the process; the model-level injector
	// restarts the station on its own virtual schedule (RestartAt).
	cn.restartNode(2)
	cn.waitState(wire.RoleMSS, 2, netrt.PeerAlive)
	cn.settle()

	var regens, stale, crashDiscards int64
	var snapEntries map[core.MHID]int
	var snapMax int
	cn.lb.Sys.Do(func() {
		regens = r2.Regenerations()
		stale = r2.StaleTokensDropped()
		crashDiscards = inj.Stats().CrashDiscards
		snapEntries = make(map[core.MHID]int, len(entries))
		for mh, c := range entries {
			snapEntries[mh] = c
		}
		snapMax = maxHolders
	})
	if regens != 1 {
		t.Errorf("token regenerations = %d, want exactly 1 (counted, never two)", regens)
	}
	if snapMax > 1 {
		t.Errorf("max simultaneous CS holders = %d under crash recovery, want <= 1", snapMax)
	}
	for _, mh := range []core.MHID{0, 1, 3} {
		if got := snapEntries[mh]; got != 1 {
			t.Errorf("mh%d entered the critical section %d times, want 1", int(mh), got)
		}
	}
	// The original token disappeared one of two ways, depending on which
	// layer's crash won the race: discarded by the model-level injector
	// inside its crash window, or parked at the dead transport and dropped
	// as stale when the resync replayed it after regeneration. Either way
	// there must be evidence of the swallow.
	if stale+crashDiscards == 0 {
		t.Errorf("stale drops = %d, crash discards = %d: nothing ever swallowed the token", stale, crashDiscards)
	}
	if gen := cn.lb.Nodes[2].Gen(); gen < 2 {
		t.Errorf("restarted node generation = %d, want >= 2", gen)
	}
}

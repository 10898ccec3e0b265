package netrt

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// fastLiveness tightens the heartbeat clock so crash tests converge in
// tens of milliseconds instead of the production half-second.
func fastLiveness(cfg Config) Config {
	cfg.HeartbeatEvery = 10 * time.Millisecond
	cfg.SuspectAfter = 2
	cfg.DeadAfter = 120 * time.Millisecond
	return cfg
}

// waitPeerState polls the hub's liveness verdict for a peer.
func waitPeerState(t *testing.T, s *System, role wire.Role, id int, want PeerState) {
	t.Helper()
	deadline := time.Now().Add(idleTimeout)
	for time.Now().Before(deadline) {
		if s.PeerStateOf(role, id) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %v%d never reached state %v (now %v)", role, id, want, s.PeerStateOf(role, id))
}

// TestOutboxReplayAcrossConnDrop is the satellite regression for the peer
// outbox: an ordered stream keeps flowing while the hub-side connections to
// the relay nodes are repeatedly torn down mid-stream. The outbox's
// peek/flush/consume discipline plus the hub's release-buffer dedup must lose
// nothing and double-apply nothing.
func TestOutboxReplayAcrossConnDrop(t *testing.T) {
	const batches, batch = 6, 8
	lb := startLoopback(t, DefaultConfig(3, 6))
	defer lb.Stop()

	var received []int
	p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
		if at == 1 {
			received = append(received, msg.(int))
		}
	}}
	ctx := lb.Sys.Register(p)
	lb.Sys.Start()
	waitReady(t, lb)

	seq := 0
	for b := 0; b < batches; b++ {
		lb.Sys.Do(func() {
			for i := 0; i < batch; i++ {
				if err := ctx.SendMHToMH(0, 1, seq, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
				seq++
			}
		})
		// Tear down the hub↔node connection carrying this batch (and a
		// client uplink for good measure); the node re-dials and the outbox
		// retries the unwritten suffix on the new connection.
		lb.Sys.peerFor(wire.RoleMSS, b%3).dropCurrent()
		if b%2 == 0 {
			lb.Sys.peerFor(wire.RoleMH, 0).dropCurrent()
		}
		time.Sleep(5 * time.Millisecond)
	}
	settle(t, lb)

	var snap []int
	lb.Sys.Do(func() { snap = append(snap, received...) })
	if len(snap) != seq {
		t.Fatalf("received %d of %d messages across connection drops", len(snap), seq)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("received[%d] = %d, want %d (lost or double-applied)", i, v, i)
		}
	}
}

// TestLivenessAdmitFencing unit-tests the incarnation ledger: assignment,
// reconnects of the same generation, stale-claim fencing, and the
// needs-resync verdicts.
func TestLivenessAdmitFencing(t *testing.T) {
	lv := newLiveness(2, 2, 3, time.Second, nil, func() sim.Time { return 0 })

	// First hello, no claim: assigned gen 1, no replay (outbox is intact).
	gen, resync, ok := lv.admit(wire.RoleMSS, 0, 0)
	if !ok || gen != 1 || resync {
		t.Fatalf("first admit = (%d, %v, %v), want (1, false, true)", gen, resync, ok)
	}
	// Reconnect claiming the admitted gen: same incarnation, no replay.
	gen, resync, ok = lv.admit(wire.RoleMSS, 0, 1)
	if !ok || gen != 1 || resync {
		t.Fatalf("reconnect admit = (%d, %v, %v), want (1, false, true)", gen, resync, ok)
	}
	// A fresh incarnation (claim 0 again): gen bumps, replay required.
	gen, resync, ok = lv.admit(wire.RoleMSS, 0, 0)
	if !ok || gen != 2 || !resync {
		t.Fatalf("restart admit = (%d, %v, %v), want (2, true, true)", gen, resync, ok)
	}
	// The stale incarnation still dialling: fenced off.
	if _, _, ok := lv.admit(wire.RoleMSS, 0, 1); ok {
		t.Fatal("stale generation 1 admitted after generation 2")
	}
	// A peer flagged dead needs a resync even on a same-gen reconnect.
	lv.mu.Lock()
	lv.peers[lv.idx(wire.RoleMH, 1)].gen = 5
	lv.peers[lv.idx(wire.RoleMH, 1)].needSync = true
	lv.mu.Unlock()
	gen, resync, ok = lv.admit(wire.RoleMH, 1, 5)
	if !ok || gen != 5 || !resync {
		t.Fatalf("dead-peer admit = (%d, %v, %v), want (5, true, true)", gen, resync, ok)
	}
}

// TestLivenessStalledTickerVerdictIsRecoverable: a heartbeat ticker that
// stalls past the dead deadline (a starved hub) finds the lastPong of a
// peer that answered every ping stale and declares it dead with nothing
// outstanding. The peer must still be pinged, so that its answer brings it
// back and flags the resync; otherwise it stays dead for as long as its
// connection stands — seen as "state dead, connected, misses 0" in a
// loaded TestCrashFIFOAcrossNodeRestart run.
func TestLivenessStalledTickerVerdictIsRecoverable(t *testing.T) {
	const deadFor = 20 * time.Millisecond
	lv := newLiveness(1, 1, 3, deadFor, nil, func() sim.Time { return 0 })
	lv.admit(wire.RoleMH, 0, 0)
	lv.noteConn(wire.RoleMH, 0, true)

	var pinged []uint64
	ping := func(_ wire.Role, _ int, seq uint64) { pinged = append(pinged, seq) }
	lv.tick(ping)
	if len(pinged) != 1 || lv.pong(wire.RoleMH, 0, pinged[0]) {
		t.Fatalf("first round: pings %v, or a resync asked of a healthy peer", pinged)
	}

	time.Sleep(2 * deadFor) // the ticker stalls; the peer owes nothing
	if died := lv.tick(ping); len(died) != 1 || lv.state(wire.RoleMH, 0) != PeerDead {
		t.Fatalf("stalled tick declared %v dead, state %v: the verdict this test recovers from did not happen", died, lv.state(wire.RoleMH, 0))
	}
	lv.tick(ping)
	if len(pinged) < 2 {
		t.Fatal("a connected peer declared dead is never pinged again: nothing can bring it back")
	}
	if !lv.pong(wire.RoleMH, 0, pinged[len(pinged)-1]) {
		t.Error("the dead peer's answer did not ask for a resync")
	}
	if got := lv.state(wire.RoleMH, 0); got != PeerAlive {
		t.Errorf("state %v after the peer answered, want alive", got)
	}
}

// TestNodeCrashRestartResync is the tentpole scenario: the station serving
// the receiver is crash-stopped mid-conversation. The hub must declare it
// dead (events observed), park traffic addressed from it
// (Stats.ParkedOnDeadMSS), and — once a fresh incarnation binds the same
// address — resync it so the full stream completes in order.
func TestNodeCrashRestartResync(t *testing.T) {
	const batch = 8
	cfg := fastLiveness(DefaultConfig(3, 6))
	cfg.Obs = obs.NewTracer(0)
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	var received []int
	p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
		if at == 1 {
			received = append(received, msg.(int))
		}
	}}
	ctx := lb.Sys.Register(p)
	lb.Sys.Start()
	waitReady(t, lb)

	send := func(from, to int) {
		lb.Sys.Do(func() {
			for i := from; i < to; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
	}
	send(0, batch) // baseline traffic through a healthy cluster
	settle(t, lb)

	// Crash the receiver's serving station (round-robin: mh1 → mss1).
	lb.KillNode(1)
	waitPeerState(t, lb.Sys, wire.RoleMSS, 1, PeerDead)

	// Traffic sent *while the station is dead*: MH→MH toward the dead cell
	// wedges mid-journey, and a wired send originating at the dead station
	// parks immediately (the ParkedOnDeadMSS path).
	send(batch, 2*batch)
	// The executor's dead flag is flipped by a task the heartbeat loop
	// pushes, so keep poking wired sends from the dead station until one
	// parks (each extra send is replayed and delivered after the restart —
	// the probe ignores MSS arrivals).
	waitParked := time.Now().Add(idleTimeout)
	for lb.Sys.ParkedOnDead() == 0 && time.Now().Before(waitParked) {
		lb.Sys.Do(func() {
			ctx.SendFixed(1, 0, "from-the-grave", cost.CatAlgorithm)
		})
		time.Sleep(5 * time.Millisecond)
	}
	if lb.Sys.ParkedOnDead() == 0 {
		t.Fatal("no transmission parked on the dead station")
	}

	// Restart: a fresh incarnation on the same address. The hub admits it
	// at a new generation, replays the unconfirmed suffix, and retargets
	// the resident clients.
	if err := lb.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	waitPeerState(t, lb.Sys, wire.RoleMSS, 1, PeerAlive)
	send(2*batch, 3*batch) // post-recovery traffic
	settle(t, lb)

	var snap []int
	lb.Sys.Do(func() { snap = append(snap, received...) })
	if len(snap) != 3*batch {
		t.Fatalf("received %d of %d messages across the crash", len(snap), 3*batch)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("received[%d] = %d, want %d (order broken by resync)", i, v, i)
		}
	}

	// The new incarnation carries a bumped generation, and the liveness
	// events tell the story: suspect and/or dead, then recovered.
	if gen := lb.Nodes[1].Gen(); gen < 2 {
		t.Errorf("restarted node generation = %d, want >= 2", gen)
	}
	var sawDead, sawRecovered bool
	for _, ev := range cfg.Obs.Events() {
		switch ev.Kind {
		case obs.EvPeerDead:
			if ev.A == 1 && ev.B == int32(wire.RoleMSS) {
				sawDead = true
			}
		case obs.EvPeerRecovered:
			if ev.A == 1 && ev.B == int32(wire.RoleMSS) {
				sawRecovered = true
			}
		}
	}
	if !sawDead || !sawRecovered {
		t.Errorf("liveness events: dead=%v recovered=%v, want both", sawDead, sawRecovered)
	}
	if st := lb.Sys.Stats(); st.ParkedOnDeadMSS == 0 {
		t.Error("engine Stats.ParkedOnDeadMSS = 0, want > 0")
	}
}

// TestHealthEndpoints drives /health and /status on all three roles across
// a node death: the hub reports ok → degraded (dead peer visible in the
// table) → ok, and node/client endpoints answer with their role documents.
func TestHealthEndpoints(t *testing.T) {
	cfg := fastLiveness(DefaultConfig(2, 4))
	lb := startLoopback(t, cfg)
	defer lb.Stop()
	lb.Sys.Register(&probe{})
	lb.Sys.Start()
	waitReady(t, lb)

	hub := httptest.NewServer(lb.Sys.HealthHandler())
	defer hub.Close()
	node := httptest.NewServer(lb.Nodes[0].HealthHandler())
	defer node.Close()
	client := httptest.NewServer(lb.Clients[0].HealthHandler())
	defer client.Close()

	getJSON := func(url string, into any) {
		t.Helper()
		resp, err := hub.Client().Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}

	var h struct {
		Status    string `json:"status"`
		Role      string `json:"role"`
		DeadPeers int    `json:"dead_peers"`
	}
	getJSON(hub.URL+"/health", &h)
	if h.Status != "ok" || h.Role != "hub" {
		t.Fatalf("healthy hub /health = %+v", h)
	}
	getJSON(node.URL+"/health", &h)
	if h.Status != "ok" || h.Role != "mss" {
		t.Fatalf("node /health = %+v", h)
	}
	getJSON(client.URL+"/health", &h)
	if h.Status != "ok" || h.Role != "mh" {
		t.Fatalf("client /health = %+v", h)
	}

	// During death: hub degrades and the status table names the dead peer.
	lb.KillNode(1)
	waitPeerState(t, lb.Sys, wire.RoleMSS, 1, PeerDead)
	getJSON(hub.URL+"/health", &h)
	if h.Status != "degraded" || h.DeadPeers != 1 {
		t.Fatalf("hub /health during death = %+v, want degraded/1", h)
	}
	var st struct {
		Role      string `json:"role"`
		M         int    `json:"m"`
		N         int    `json:"n"`
		DeadPeers int    `json:"dead_peers"`
		Peers     []struct {
			Role  string `json:"role"`
			ID    int    `json:"id"`
			State string `json:"state"`
		} `json:"peers"`
	}
	getJSON(hub.URL+"/status", &st)
	if st.Role != "hub" || st.M != 2 || st.N != 4 || st.DeadPeers != 1 {
		t.Fatalf("hub /status during death = %+v", st)
	}
	foundDead := false
	for _, p := range st.Peers {
		if p.Role == "mss" && p.ID == 1 {
			if p.State != "dead" {
				t.Fatalf("peer mss1 state = %q, want dead", p.State)
			}
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatal("dead peer mss1 missing from /status table")
	}

	// After restart: back to ok, peer alive again.
	if err := lb.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	waitPeerState(t, lb.Sys, wire.RoleMSS, 1, PeerAlive)
	getJSON(hub.URL+"/health", &h)
	if h.Status != "ok" {
		t.Fatalf("hub /health after restart = %+v, want ok", h)
	}

	var ns struct {
		Role string `json:"role"`
		ID   int    `json:"id"`
	}
	getJSON(node.URL+"/status", &ns)
	if ns.Role != "mss" || ns.ID != 0 {
		t.Fatalf("node /status = %+v", ns)
	}
	var cs struct {
		Role     string `json:"role"`
		ID       int    `json:"id"`
		Attached bool   `json:"attached"`
	}
	getJSON(client.URL+"/status", &cs)
	if cs.Role != "mh" || cs.ID != 0 || !cs.Attached {
		t.Fatalf("client /status = %+v, want attached mh0", cs)
	}
}

// TestClientCrashRestart: an MH client process dies and a fresh incarnation
// replaces it; the hub resyncs the client's unconfirmed uplinks and
// re-sends its current cell, so traffic from and to that MH completes.
func TestClientCrashRestart(t *testing.T) {
	const batch = 6
	cfg := fastLiveness(DefaultConfig(2, 4))
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	var received []int
	p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
		if at == 1 {
			received = append(received, msg.(int))
		}
	}}
	ctx := lb.Sys.Register(p)
	lb.Sys.Start()
	waitReady(t, lb)

	send := func(from, to int) {
		lb.Sys.Do(func() {
			for i := from; i < to; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
	}
	send(0, batch)
	settle(t, lb)

	lb.Clients[1].Stop()
	waitPeerState(t, lb.Sys, wire.RoleMH, 1, PeerDead)
	// Traffic toward the dead client's cell still resolves: the serving
	// node radios into the cell and confirms (model semantics — the engine
	// re-checks MH state at delivery time). The point here is the uplink
	// resync + retarget path when the fresh incarnation arrives.
	send(batch, 2*batch)
	if err := lb.RestartClient(1); err != nil {
		t.Fatalf("RestartClient: %v", err)
	}
	waitPeerState(t, lb.Sys, wire.RoleMH, 1, PeerAlive)
	settle(t, lb)

	var snap []int
	lb.Sys.Do(func() { snap = append(snap, received...) })
	if len(snap) != 2*batch {
		t.Fatalf("received %d of %d messages across the client crash", len(snap), 2*batch)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("received[%d] = %d, want %d", i, v, i)
		}
	}
}

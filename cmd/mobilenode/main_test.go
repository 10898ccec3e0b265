package main

import (
	"encoding/base64"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiledist/internal/dgram"
	"mobiledist/internal/netrt"
)

// TestDemoCompletesTokenRingRun is the acceptance scenario: a loopback
// cluster of 3 MSS nodes and 4 MH clients completes an R2 token-ring run
// with leave/join handoffs and prints the cost/Stats table.
func TestDemoCompletesTokenRingRun(t *testing.T) {
	var out syncBuilder
	if err := run([]string{"-role", "demo", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run demo: %v", err)
	}
	text := out.String()
	for i := 0; i < 4; i++ {
		want := "mh" + string(rune('0'+i))
		if !strings.Contains(text, want+" ") {
			t.Errorf("demo output missing a CS entry for %s:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "4 grants over TCP transport") {
		t.Errorf("demo output missing grant summary:\n%s", text)
	}
	if !strings.Contains(text, "moves=2") {
		t.Errorf("demo output missing the two leave/join handoffs:\n%s", text)
	}
	if !strings.Contains(text, "algorithm") || !strings.Contains(text, "total cost") {
		t.Errorf("demo output missing the cost table:\n%s", text)
	}
}

// TestDemoOverUDPTransport runs the same acceptance scenario with every
// link an authenticated datagram session instead of a TCP stream.
func TestDemoOverUDPTransport(t *testing.T) {
	var out syncBuilder
	if err := run([]string{"-role", "demo", "-seed", "3", "-transport", "udp"}, &out); err != nil {
		t.Fatalf("run demo -transport udp: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "4 grants over UDP transport") {
		t.Errorf("demo output missing UDP grant summary:\n%s", text)
	}
	if !strings.Contains(text, "moves=2") {
		t.Errorf("demo output missing the two leave/join handoffs:\n%s", text)
	}
}

// TestMintTokenPrintsValidBlob: -mint-token emits a base64 blob whose token
// part validates under the cluster secret for every cluster address, and
// whose trailing KeySize bytes are the matching session key.
func TestMintTokenPrintsValidBlob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	var out syncBuilder
	err := run([]string{"-init", "-m", "2", "-n", "3", "-base", "127.0.0.1:9500",
		"-cluster", path, "-transport", "udp", "-secret", "hunter2"}, &out)
	if err != nil {
		t.Fatalf("run -init: %v", err)
	}
	out = syncBuilder{}
	if err := run([]string{"-mint-token", "-cluster", path, "-id", "1", "-ttl", "1h"}, &out); err != nil {
		t.Fatalf("run -mint-token: %v", err)
	}
	blob, err := base64.StdEncoding.DecodeString(strings.TrimSpace(out.String()))
	if err != nil {
		t.Fatalf("-mint-token output is not base64: %v\n%s", err, out.String())
	}
	if len(blob) <= dgram.KeySize {
		t.Fatalf("blob too short: %d bytes", len(blob))
	}
	token, key := blob[:len(blob)-dgram.KeySize], blob[len(blob)-dgram.KeySize:]
	for _, addr := range []string{"127.0.0.1:9500", "127.0.0.1:9501", "127.0.0.1:9502"} {
		info, wantKey, err := dgram.Validate([]byte("hunter2"), token, addr, time.Now())
		if err != nil {
			t.Fatalf("minted token refused at %s: %v", addr, err)
		}
		if info.ID != 1 {
			t.Errorf("token ID = %d, want 1", info.ID)
		}
		if string(wantKey) != string(key) {
			t.Error("blob's trailing key does not match the token's derived session key")
		}
	}
	if _, _, err := dgram.Validate([]byte("hunter2"), token, "10.0.0.1:9", time.Now()); err == nil {
		t.Error("minted token accepted at an unbound address")
	}
}

// TestInitWritesLoadableClusterFile checks -init round-trips through
// netrt.LoadCluster with sequential ports.
func TestInitWritesLoadableClusterFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	var out syncBuilder
	err := run([]string{"-init", "-m", "3", "-n", "5", "-base", "127.0.0.1:9400", "-cluster", path}, &out)
	if err != nil {
		t.Fatalf("run -init: %v", err)
	}
	cc, err := netrt.LoadCluster(path)
	if err != nil {
		t.Fatalf("LoadCluster: %v", err)
	}
	if cc.Hub != "127.0.0.1:9400" || cc.M != 3 || cc.N != 5 {
		t.Errorf("cluster = %+v", cc)
	}
	if cc.MSS[0] != "127.0.0.1:9401" || cc.MSS[2] != "127.0.0.1:9403" {
		t.Errorf("MSS addresses not sequential: %v", cc.MSS)
	}
}

// TestHubDrivesExternalNodesAndClients runs the three roles as separate
// in-process instances wired through a cluster file on ephemeral ports —
// the multi-process deployment, minus the processes.
func TestHubDrivesExternalNodesAndClients(t *testing.T) {
	cc, listeners := ephemeralCluster(t, 2, 3)

	cfg := netrt.DefaultConfig(cc.M, cc.N)
	cfg.ListenAddr = cc.Hub
	cfg.MSSAddrs = cc.MSS
	sys, err := netrt.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cc.Hub = sys.Addr() // the hub bound an ephemeral port; tell the others

	nodes := make([]*netrt.Node, cc.M)
	for i := range nodes {
		n, err := netrt.StartNode(netrt.NodeConfig{ID: i, Cluster: cc, Listener: listeners[i]})
		if err != nil {
			t.Fatalf("StartNode %d: %v", i, err)
		}
		nodes[i] = n
	}
	clients := make([]*netrt.Client, cc.N)
	for h := range clients {
		c, err := netrt.StartClient(netrt.ClientConfig{ID: h, Cluster: cc})
		if err != nil {
			t.Fatalf("StartClient %d: %v", h, err)
		}
		clients[h] = c
	}

	var out syncBuilder
	if err := demoWorkload(&out, sys, cc.M, cc.N, 30*time.Second); err != nil {
		t.Fatalf("demoWorkload: %v", err)
	}
	if !strings.Contains(out.String(), "grants over TCP transport") {
		t.Errorf("hub output missing grant summary:\n%s", out.String())
	}
	// The hub's goodbye must shut relays and clients down on its own.
	done := make(chan struct{})
	go func() {
		for _, n := range nodes {
			n.Wait()
		}
		for _, c := range clients {
			c.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nodes/clients did not exit after the hub said goodbye")
	}
}

// fakeProcess scripts one supervised incarnation for unit tests.
type fakeProcess struct {
	bye  bool
	dead chan struct{}
}

func (f *fakeProcess) Wait()         { <-f.dead }
func (f *fakeProcess) SaidBye() bool { return f.bye }
func (f *fakeProcess) Stop()         {}
func (f *fakeProcess) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
}

// TestSuperviseRestartsUntilBye: the supervision loop replaces crashed
// incarnations (with backoff), keeps the health endpoint answering across
// the generation gap, and exits cleanly when an incarnation reports the
// hub's orderly goodbye.
func TestSuperviseRestartsUntilBye(t *testing.T) {
	var out syncBuilder
	incarnations := make(chan *fakeProcess, 3)
	starts := 0
	start := func() (process, error) {
		starts++
		p := &fakeProcess{bye: starts >= 3, dead: make(chan struct{})}
		incarnations <- p
		return p, nil
	}
	done := make(chan error, 1)
	go func() { done <- superviseProcess(&out, "mss0", "127.0.0.1:0", start) }()

	for i := 0; i < 3; i++ {
		select {
		case p := <-incarnations:
			close(p.dead) // this incarnation dies (or, on the third, says bye)
		case <-time.After(10 * time.Second):
			t.Fatalf("incarnation %d never started", i+1)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("supervise: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("supervise did not exit after the goodbye incarnation")
	}
	if starts != 3 {
		t.Errorf("started %d incarnations, want 3", starts)
	}
	text := out.String()
	if !strings.Contains(text, "restarting in") || !strings.Contains(text, "goodbye") {
		t.Errorf("supervise log missing restart/goodbye lines:\n%s", text)
	}
}

// TestApplyEnvOverrides: the MOBILEDIST_* variables overlay the cluster
// file's liveness tuning, and a malformed value is an error that names the
// variable and the value, from applyEnv and from the process's run.
func TestApplyEnvOverrides(t *testing.T) {
	t.Setenv("MOBILEDIST_HEARTBEAT_MS", "40")
	cc, err := applyEnv(netrt.ClusterConfig{Hub: "h", M: 1, N: 1, MSS: []string{"a"}})
	if err != nil || cc.HeartbeatMS != 40 {
		t.Errorf("applyEnv = %+v, %v; want heartbeat 40", cc, err)
	}
	t.Setenv("MOBILEDIST_HEARTBEAT_MS", "not-a-number")
	if _, err := applyEnv(netrt.ClusterConfig{}); err == nil || !strings.Contains(err.Error(), `MOBILEDIST_HEARTBEAT_MS="not-a-number"`) {
		t.Errorf("applyEnv on a malformed value: err = %v, want one naming the variable and its value", err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := run([]string{"-init", "-m", "1", "-n", "1", "-base", "127.0.0.1:1", "-cluster", path}, io.Discard); err != nil {
		t.Fatalf("-init: %v", err)
	}
	err = run([]string{"-role", "mss", "-id", "0", "-cluster", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "MOBILEDIST_HEARTBEAT_MS") {
		t.Errorf("-role mss under a malformed MOBILEDIST_HEARTBEAT_MS: err = %v, want it rejected", err)
	}
}

// TestDemoServesHealthEndpoint: -health on the demo role answers /health
// while the workload runs (polled concurrently, since runDemo is
// synchronous). The endpoint binds port 0 and the test reads the address
// it got from the demo's output, so no port is ever released and rebound.
func TestDemoServesHealthEndpoint(t *testing.T) {
	var out syncBuilder
	done := make(chan error, 1)
	go func() { done <- run([]string{"-role", "demo", "-seed", "5", "-health", "127.0.0.1:0"}, &out) }()

	bound := regexp.MustCompile(`health endpoint on (http://\S+/health)`)
	deadline := time.Now().Add(15 * time.Second)
	healthy := false
	for !healthy && time.Now().Before(deadline) {
		if m := bound.FindStringSubmatch(out.String()); m != nil {
			if resp, err := http.Get(m[1]); err == nil {
				healthy = resp.StatusCode == 200
				resp.Body.Close()
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run demo: %v", err)
			}
			if !healthy {
				t.Fatal("demo finished before /health ever answered")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !healthy {
		t.Fatal("/health never answered 200 during the demo")
	}
	if err := <-done; err != nil {
		t.Fatalf("run demo: %v", err)
	}
}

func TestUnknownRoleRejected(t *testing.T) {
	var out syncBuilder
	if err := run([]string{"-role", "teapot"}, &out); err == nil {
		t.Error("unknown role accepted")
	}
}

func TestClusterRolesNeedClusterFile(t *testing.T) {
	var out syncBuilder
	for _, role := range []string{"hub", "mss", "mh"} {
		if err := run([]string{"-role", role}, &out); err == nil {
			t.Errorf("-role %s without -cluster accepted", role)
		}
	}
}

// ephemeralCluster binds M station listeners on ephemeral loopback ports
// and returns the matching cluster config (the hub address is a placeholder
// until the hub binds its own ephemeral port).
func ephemeralCluster(t *testing.T, m, n int) (netrt.ClusterConfig, []net.Listener) {
	t.Helper()
	listeners := make([]net.Listener, m)
	addrs := make([]string, m)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return netrt.ClusterConfig{
		Hub: "127.0.0.1:0",
		MSS: addrs,
		M:   m,
		N:   n,
	}, listeners
}

// syncBuilder is a strings.Builder safe for the demo's two writers (the
// executor's OnEnter callback and the driving goroutine).
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

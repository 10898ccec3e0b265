// Command mobilenode runs pieces of a socket-backed two-tier cluster — the
// deployment the paper describes: mobile support stations as real machines
// on a wired network, mobile hosts reaching their serving station over a
// wireless link. Every link is a real socket (internal/netrt): a TCP stream
// by default, or an authenticated UDP datagram session (internal/dgram)
// with -transport udp. The model engine runs at a hub process.
//
// Roles:
//
//	mobilenode -init -m 3 -n 4 -cluster cluster.json [-base 127.0.0.1:9200]
//	    write a cluster address file for 3 stations and 4 hosts
//	mobilenode -role hub -cluster cluster.json
//	    run the hub: hosts the engine, drives the demo R2 token-ring
//	    workload across the cluster, prints the cost/Stats table, then
//	    shuts the cluster down
//	mobilenode -role mss -id 0 -cluster cluster.json
//	    run one MSS relay node (repeat for each id in [0, M))
//	mobilenode -role mh -id 0 -cluster cluster.json
//	    run one MH client (repeat for each id in [0, N))
//	mobilenode -role demo
//	    the whole thing in one process: a loopback cluster of 3 MSS nodes
//	    and 4 MH clients completes an R2 token-ring run with leave/join
//	    handoffs — traffic still crosses real TCP sockets
//
// Start the MSS and MH processes in any order: connections retry with
// backoff, traffic queues in outboxes, and the hub's workload begins once
// the cluster reports ready. Relays and clients exit when the hub says
// goodbye.
//
// Operational surface:
//
//   - -health ADDR serves the role's /health and /status JSON endpoints
//     (plus /metrics on the hub) on ADDR for probes and dashboards.
//   - -supervise (mss/mh) auto-restarts the process's incarnation with
//     capped, jittered backoff whenever it dies for any reason other than
//     the hub's orderly goodbye. Each restart claims generation 0 in its
//     hello, so the hub fences the dead incarnation and replays the
//     unconfirmed suffix.
//   - MOBILEDIST_HEARTBEAT_MS, MOBILEDIST_DIAL_BACKOFF_MIN_MS and
//     MOBILEDIST_DIAL_BACKOFF_MAX_MS override the cluster file's liveness
//     cadence and reconnect pacing per process.
//   - -transport tcp|udp selects the socket substrate; with -init it is
//     stamped into the cluster file, otherwise it overrides the file (every
//     process must agree). -secret overrides the UDP token-minting secret
//     the same way.
//   - -mint-token prints a base64 connect-token blob (token plus session
//     key) bound to every address in the cluster file, valid for -ttl.
//     Hand it to an MH process via -token to dial over UDP with a
//     credential minted out of band instead of one self-minted from the
//     shared secret. /status on every role reports the active transport
//     and per-session datagram counters (retransmits, replay drops).
package main

import (
	"encoding/base64"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/dgram"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/netrt"
	"mobiledist/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobilenode:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobilenode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		role      = fs.String("role", "demo", "process role: demo, hub, mss, or mh")
		cluster   = fs.String("cluster", "", "cluster address file (JSON)")
		id        = fs.Int("id", 0, "station or host id for -role mss/mh")
		doInit    = fs.Bool("init", false, "write a cluster file for -m/-n and exit")
		m         = fs.Int("m", 3, "number of mobile support stations (-init)")
		n         = fs.Int("n", 4, "number of mobile hosts (-init)")
		base      = fs.String("base", "127.0.0.1:9200", "first address for -init; subsequent ports count up")
		seed      = fs.Uint64("seed", 1, "latency RNG seed (hub)")
		timeout   = fs.Duration("timeout", 30*time.Second, "cluster ready/drain timeout (hub)")
		health    = fs.String("health", "", "serve the role's /health and /status endpoints on this address")
		supervise = fs.Bool("supervise", false, "auto-restart mss/mh incarnations with capped backoff until the hub says goodbye")
		transport = fs.String("transport", "", "socket substrate: tcp or udp (with -init: stamped into the cluster file; otherwise overrides it)")
		secret    = fs.String("secret", "", "UDP token-minting secret (with -init: stamped into the cluster file; otherwise overrides it)")
		mintToken = fs.Bool("mint-token", false, "print a base64 UDP connect-token blob for -id bound to every cluster address, then exit")
		ttl       = fs.Duration("ttl", time.Hour, "minted token lifetime (-mint-token)")
		token64   = fs.String("token", "", "base64 connect-token blob for -role mh (see -mint-token)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *doInit {
		if *cluster == "" {
			return fmt.Errorf("-init needs -cluster FILE")
		}
		cc, err := initCluster(*m, *n, *base)
		if err != nil {
			return err
		}
		cc.Transport, cc.Secret = *transport, *secret
		if err := cc.Validate(); err != nil {
			return err
		}
		if err := cc.Save(*cluster); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: hub %s, %d stations, %d hosts\n", *cluster, cc.Hub, cc.M, cc.N)
		return nil
	}

	if *mintToken {
		if *cluster == "" {
			return fmt.Errorf("-mint-token needs -cluster FILE")
		}
		cc, err := netrt.LoadCluster(*cluster)
		if err != nil {
			return err
		}
		cc = overrideTransport(cc, *transport, *secret)
		blob, err := mintTokenBlob(cc, *id, *ttl)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, blob)
		return nil
	}

	switch *role {
	case "demo":
		return runDemo(out, *seed, *timeout, *health, *transport, *secret)
	case "hub", "mss", "mh":
		if *cluster == "" {
			return fmt.Errorf("-role %s needs -cluster FILE", *role)
		}
		cc, err := netrt.LoadCluster(*cluster)
		if err != nil {
			return err
		}
		cc = overrideTransport(applyEnv(cc), *transport, *secret)
		switch *role {
		case "hub":
			return runHub(out, cc, *seed, *timeout, *health)
		case "mss":
			name := fmt.Sprintf("mss%d", *id)
			start := func() (process, error) {
				return netrt.StartNode(netrt.NodeConfig{ID: *id, Cluster: cc})
			}
			if *supervise {
				return superviseProcess(out, name, *health, start)
			}
			node, err := netrt.StartNode(netrt.NodeConfig{ID: *id, Cluster: cc})
			if err != nil {
				return err
			}
			stopHealth, err := serveHealth(out, *health, node.HealthHandler())
			if err != nil {
				node.Stop()
				return err
			}
			defer stopHealth()
			fmt.Fprintf(out, "%s relaying on %s\n", name, node.Addr())
			node.Wait()
			return nil
		default:
			name := fmt.Sprintf("mh%d", *id)
			var token []byte
			if *token64 != "" {
				token, err = base64.StdEncoding.DecodeString(*token64)
				if err != nil {
					return fmt.Errorf("-token is not valid base64: %w", err)
				}
			}
			start := func() (process, error) {
				return netrt.StartClient(netrt.ClientConfig{ID: *id, Cluster: cc, Token: token})
			}
			if *supervise {
				return superviseProcess(out, name, *health, start)
			}
			client, err := netrt.StartClient(netrt.ClientConfig{ID: *id, Cluster: cc, Token: token})
			if err != nil {
				return err
			}
			stopHealth, err := serveHealth(out, *health, client.HealthHandler())
			if err != nil {
				client.Stop()
				return err
			}
			defer stopHealth()
			fmt.Fprintf(out, "%s on the wireless tier\n", name)
			client.Wait()
			return nil
		}
	default:
		return fmt.Errorf("unknown role %q (want demo, hub, mss, or mh)", *role)
	}
}

// overrideTransport applies the -transport/-secret flag overrides to a
// loaded cluster file. Empty flags keep the file's values.
func overrideTransport(cc netrt.ClusterConfig, transport, secret string) netrt.ClusterConfig {
	if transport != "" {
		cc.Transport = transport
	}
	if secret != "" {
		cc.Secret = secret
	}
	return cc
}

// mintTokenBlob mints a UDP connect token for MH id under the cluster's
// secret, bound to every dialable address in the file (the hub and all
// stations, so the credential survives handoffs), and returns the
// out-of-band blob — base64 of token || session key.
func mintTokenBlob(cc netrt.ClusterConfig, id int, ttl time.Duration) (string, error) {
	sec := cc.Secret
	if sec == "" {
		sec = netrt.DefaultSecret
	}
	addrs := append([]string{cc.Hub}, cc.MSS...)
	token, key, err := dgram.Mint([]byte(sec), dgram.TokenInfo{
		Role:   byte(wire.RoleMH),
		ID:     int64(id),
		Expiry: time.Now().Add(ttl),
		Addrs:  addrs,
	})
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(append(token, key...)), nil
}

// applyEnv overlays the MOBILEDIST_* environment overrides on a loaded
// cluster file, so operators can tune liveness cadence and reconnect pacing
// per process without editing the shared file.
func applyEnv(cc netrt.ClusterConfig) netrt.ClusterConfig {
	if v, ok := envInt64("MOBILEDIST_HEARTBEAT_MS"); ok {
		cc.HeartbeatMS = v
	}
	if v, ok := envInt64("MOBILEDIST_DIAL_BACKOFF_MIN_MS"); ok {
		cc.DialBackoffMinMS = v
	}
	if v, ok := envInt64("MOBILEDIST_DIAL_BACKOFF_MAX_MS"); ok {
		cc.DialBackoffMaxMS = v
	}
	return cc
}

func envInt64(key string) (int64, bool) {
	s := os.Getenv(key)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// serveHealth serves h on addr (no-op when addr is empty), returning a stop
// function.
func serveHealth(out io.Writer, addr string, h http.Handler) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("health listener: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	fmt.Fprintf(out, "health endpoint on http://%s/health\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// process is one supervisable cluster incarnation (a relay node or an MH
// client).
type process interface {
	Wait()
	SaidBye() bool
	Stop()
	HealthHandler() http.Handler
}

// Supervision backoff: restarts pace up from min to cap; an incarnation
// that stays up past resetAfter earns the next crash a fresh minimum.
const (
	superviseBackoffMin    = 250 * time.Millisecond
	superviseBackoffMax    = 5 * time.Second
	superviseResetAfter    = 10 * time.Second
	superviseHealthUnavail = `{"status":"restarting"}` + "\n"
)

// superviseProcess keeps one incarnation of the role running: when it dies
// for any reason other than the hub's orderly TBye, a fresh one is started
// after a capped backoff. The health endpoint (when configured) outlives
// every incarnation, answering 503 between them.
func superviseProcess(out io.Writer, name, health string, start func() (process, error)) error {
	var cur atomic.Value // process of the live incarnation
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p, ok := cur.Load().(process); ok && p != nil {
			p.HealthHandler().ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, superviseHealthUnavail)
	})
	stopHealth, err := serveHealth(out, health, handler)
	if err != nil {
		return err
	}
	defer stopHealth()

	backoff := superviseBackoffMin
	for attempt := 1; ; attempt++ {
		p, err := start()
		if err != nil {
			fmt.Fprintf(out, "%s: start failed: %v (retry in %v)\n", name, err, backoff)
		} else {
			cur.Store(p)
			began := time.Now()
			fmt.Fprintf(out, "%s up (incarnation %d)\n", name, attempt)
			p.Wait()
			if p.SaidBye() {
				fmt.Fprintf(out, "%s: hub said goodbye; exiting\n", name)
				return nil
			}
			if time.Since(began) >= superviseResetAfter {
				backoff = superviseBackoffMin
			}
			fmt.Fprintf(out, "%s died; restarting in %v\n", name, backoff)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > superviseBackoffMax {
			backoff = superviseBackoffMax
		}
	}
}

// initCluster assigns sequential ports starting at base: hub first, then
// one per station.
func initCluster(m, n int, base string) (netrt.ClusterConfig, error) {
	var cc netrt.ClusterConfig
	if m < 1 || n < 1 {
		return cc, fmt.Errorf("need -m >= 1 and -n >= 1 (got %d, %d)", m, n)
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return cc, fmt.Errorf("bad -base %q: want host:port", base)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return cc, fmt.Errorf("bad -base port %q", portStr)
	}
	cc.Hub = net.JoinHostPort(host, strconv.Itoa(port))
	cc.M, cc.N = m, n
	cc.MSS = make([]string, m)
	for i := range cc.MSS {
		cc.MSS[i] = net.JoinHostPort(host, strconv.Itoa(port+1+i))
	}
	return cc, nil
}

// hubHealthMux mounts the hub's health/status endpoints next to /metrics.
func hubHealthMux(sys *netrt.System) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", sys.HealthHandler())
	mux.Handle("/metrics", sys.MetricsHandler())
	return mux
}

// runHub hosts the engine for an externally launched cluster and drives the
// demo workload across it.
func runHub(out io.Writer, cc netrt.ClusterConfig, seed uint64, timeout time.Duration, health string) error {
	cfg := netrt.DefaultConfig(cc.M, cc.N)
	cfg.Seed = seed
	cfg.ListenAddr = cc.Hub
	cfg.MSSAddrs = cc.MSS
	if cc.TickNS > 0 {
		cfg.Tick = time.Duration(cc.TickNS)
	}
	if cc.HeartbeatMS != 0 {
		cfg.HeartbeatEvery = time.Duration(cc.HeartbeatMS) * time.Millisecond
	}
	cfg.DialBackoffMin = time.Duration(cc.DialBackoffMinMS) * time.Millisecond
	cfg.DialBackoffMax = time.Duration(cc.DialBackoffMaxMS) * time.Millisecond
	cfg.Transport = cc.Transport
	cfg.Secret = cc.Secret
	sys, err := netrt.NewSystem(cfg)
	if err != nil {
		return err
	}
	stopHealth, err := serveHealth(out, health, hubHealthMux(sys))
	if err != nil {
		sys.Stop()
		return err
	}
	defer stopHealth()
	fmt.Fprintf(out, "hub listening on %s; waiting for %d stations and %d hosts\n", sys.Addr(), cc.M, cc.N)
	return demoWorkload(out, sys, cc.M, cc.N, timeout)
}

// runDemo launches a full loopback cluster — 3 MSS relay nodes and 4 MH
// clients on 127.0.0.1 sockets — and drives the same workload.
func runDemo(out io.Writer, seed uint64, timeout time.Duration, health, transport, secret string) error {
	const m, n = 3, 4
	cfg := netrt.DefaultConfig(m, n)
	cfg.Seed = seed
	cfg.Transport = transport
	cfg.Secret = secret
	lb, err := netrt.StartLoopback(cfg)
	if err != nil {
		return err
	}
	defer lb.Stop()
	stopHealth, err := serveHealth(out, health, hubHealthMux(lb.Sys))
	if err != nil {
		return err
	}
	defer stopHealth()
	fmt.Fprintf(out, "loopback cluster: hub %s, %d MSS nodes, %d MH clients\n", lb.Sys.Addr(), m, n)
	return demoWorkload(out, lb.Sys, m, n, timeout)
}

// demoWorkload is the R2 token-ring run both hub and demo roles execute:
// every host requests the critical section, the token makes two traversals,
// and two hosts hand off between cells (leave/join) mid-run — then the
// cost/Stats table shows what crossing real links did (and did not) change.
func demoWorkload(out io.Writer, sys *netrt.System, m, n int, timeout time.Duration) error {
	defer sys.Stop()

	var grants int
	r2, err := ring.NewR2(sys, ring.VariantCounter, ring.Options{
		Hold: 2,
		OnEnter: func(mh core.MHID) {
			grants++
			fmt.Fprintf(out, "mh%-2d enters the critical section\n", int(mh))
		},
	}, 2, nil)
	if err != nil {
		return err
	}

	sys.Start()
	if !sys.WaitReady(timeout) {
		return fmt.Errorf("cluster did not become ready within %v", timeout)
	}
	fmt.Fprintf(out, "cluster ready: every station and host connected\n\n")

	sys.Do(func() {
		for i := 0; i < n; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				fmt.Fprintln(out, "request:", err)
			}
		}
	})
	// Leave/join handoffs while requests are in flight: each move physically
	// re-dials the client's wireless connection to its new station. Targets
	// are one cell over from each host's round-robin starting cell.
	sys.Move(1, core.MSSID((1+1)%m))
	sys.Move(core.MHID(n-1), core.MSSID(((n-1)+1)%m))
	sys.Do(func() {
		if err := r2.Start(); err != nil {
			fmt.Fprintln(out, "start:", err)
		}
	})
	if !sys.WaitIdle(timeout) {
		return fmt.Errorf("network did not drain within %v", timeout)
	}

	var snapGrants int
	sys.Do(func() { snapGrants = grants })
	grants = snapGrants
	st := sys.Stats()
	cfgp := sys.Config().Params
	fmt.Fprintf(out, "\n%d grants over %s transport; %d searches performed\n",
		grants, strings.ToUpper(sys.Transport()), st.Searches)
	fmt.Fprintf(out, "moves=%d handoffs(leave/join)=%d disconnects=%d reconnects=%d\n",
		st.Moves, st.Moves, st.Disconnects, st.Reconnects)
	fmt.Fprint(out, sys.Meter().Report(cfgp))
	return nil
}

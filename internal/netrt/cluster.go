package netrt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"mobiledist/internal/wire"
)

// ClusterConfig is the shared topology every cluster process reads: who
// the hub is, where each station listens, and the model scale. It is the
// on-disk contract for cmd/mobilenode (-cluster file) and the in-memory
// one for the loopback launcher.
type ClusterConfig struct {
	// Hub is the hub's TCP address.
	Hub string `json:"hub"`
	// MSS lists each station's TCP address, indexed by MSS id.
	MSS []string `json:"mss"`
	// M and N size the network (M == len(MSS)).
	M int `json:"m"`
	// N is the number of mobile hosts.
	N int `json:"n"`
	// TickNS is the virtual-time tick in nanoseconds (0: the 50µs
	// default) — nanoseconds so that it carries the hub's rt.Config.Tick
	// without loss and hub and relays price a link latency identically.
	// Relays use it to stamp due times in their link pipes.
	TickNS int64 `json:"tick_ns,omitempty"`
	// HeartbeatMS is the liveness ping interval in milliseconds (0: the
	// 25ms default; negative: heartbeats disabled). Relay nodes use the
	// same cadence toward their attached clients.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// DialBackoffMinMS / DialBackoffMaxMS bound every dialler's jittered
	// exponential reconnect backoff, in milliseconds (0: the package
	// defaults, 5ms and 250ms).
	DialBackoffMinMS int64 `json:"dial_backoff_min_ms,omitempty"`
	DialBackoffMaxMS int64 `json:"dial_backoff_max_ms,omitempty"`
	// Transport selects the substrate every cluster connection runs over:
	// "tcp" (default, also empty) or "udp" (authenticated datagram
	// sessions via internal/dgram).
	Transport string `json:"transport,omitempty"`
	// Secret is the shared cluster secret UDP connect tokens are minted
	// and validated under (empty: the insecure development default).
	Secret string `json:"secret,omitempty"`
}

// transport builds the dial/listen substrate for a cluster process. role
// and id identify the dialler in per-dial minted UDP connect tokens.
func (c ClusterConfig) transport(role wire.Role, id int) (transport, error) {
	return newTransport(c.Transport, c.Secret, role, id)
}

// heartbeat returns the liveness ping interval (0 disables heartbeats).
func (c ClusterConfig) heartbeat() time.Duration {
	if c.HeartbeatMS < 0 {
		return 0
	}
	if c.HeartbeatMS == 0 {
		return defaultHeartbeatEvery
	}
	return time.Duration(c.HeartbeatMS) * time.Millisecond
}

// backoffBounds returns the dialler reconnect backoff bounds.
func (c ClusterConfig) backoffBounds() (min, max time.Duration) {
	min = time.Duration(c.DialBackoffMinMS) * time.Millisecond
	max = time.Duration(c.DialBackoffMaxMS) * time.Millisecond
	if min <= 0 {
		min = defaultDialBackoffMin
	}
	if max <= 0 {
		max = defaultDialBackoffMax
	}
	if max < min {
		max = min
	}
	return min, max
}

// ceilMS converts a Config duration to a ClusterConfig millisecond field,
// rounding up so that a positive sub-millisecond value stays positive
// instead of truncating to 0 ("use the default"). Zero and negative values
// keep their meaning (default; for heartbeats, disabled).
func ceilMS(d time.Duration) int64 {
	if d < 0 {
		return -1
	}
	return int64((d + time.Millisecond - 1) / time.Millisecond)
}

// tick returns the wall duration of one virtual tick.
func (c ClusterConfig) tick() time.Duration {
	if c.TickNS <= 0 {
		return 50 * time.Microsecond
	}
	return time.Duration(c.TickNS)
}

// Validate checks internal consistency.
func (c ClusterConfig) Validate() error {
	if c.Hub == "" {
		return fmt.Errorf("netrt: cluster has no hub address")
	}
	if c.M < 1 || c.N < 1 {
		return fmt.Errorf("netrt: cluster M=%d N=%d out of range", c.M, c.N)
	}
	if len(c.MSS) != c.M {
		return fmt.Errorf("netrt: cluster lists %d MSS addresses, want M=%d", len(c.MSS), c.M)
	}
	for i, a := range c.MSS {
		if a == "" {
			return fmt.Errorf("netrt: cluster MSS %d has no address", i)
		}
	}
	switch c.Transport {
	case "", TransportTCP, TransportUDP:
	default:
		return fmt.Errorf("netrt: unknown transport %q", c.Transport)
	}
	return nil
}

// Save writes the cluster file.
func (c ClusterConfig) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadCluster reads and validates a cluster file. A key this version does
// not know is an error, not ignored: a file that still says tick_us must
// fail loudly rather than silently select the default tick.
func LoadCluster(path string) (ClusterConfig, error) {
	var c ClusterConfig
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("netrt: parse %s: %w", path, err)
	}
	if dec.More() {
		return c, fmt.Errorf("netrt: parse %s: data after the cluster object", path)
	}
	return c, c.Validate()
}

// Loopback is a whole cluster — hub, M relay nodes, N clients — running
// in one process over 127.0.0.1 sockets. Traffic still crosses real TCP
// connections; only process isolation is collapsed. It is the harness the
// conformance suite, the soak test, and the cmd/mobilenode demo drive.
type Loopback struct {
	// Sys is the hub; Register algorithms on it, then Sys.Start().
	Sys *System
	// Nodes are the MSS relays, indexed by station id. A killed node's slot
	// holds the stopped *Node until RestartNode replaces it.
	Nodes []*Node
	// Clients are the MH clients, indexed by mobile host id.
	Clients []*Client
	// Cluster is the topology the pieces were wired with. Its addresses are
	// the *dialled* ones — when Config.WrapAddr interposed a nemesis proxy,
	// these are proxy addresses, while rawMSS keeps the bind addresses.
	Cluster ClusterConfig

	cfg    Config
	rawMSS []string // bind addresses, pre-WrapAddr (RestartNode rebinds them)
}

// StartLoopback launches a full cluster on loopback sockets from cfg
// (ListenAddr and MSSAddrs are assigned automatically). The hub is
// returned unstarted so algorithms can be registered; nodes and clients
// are already connecting, so Sys.WaitReady succeeds shortly after
// Sys.Start.
func StartLoopback(cfg Config) (*Loopback, error) {
	// Bind every station's listener first so the address exchange (hub →
	// client retargets) has real ports before anything dials.
	listeners := make([]net.Listener, cfg.M)
	addrs := make([]string, cfg.M)
	fail := func(err error) (*Loopback, error) {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	bindTr, err := newTransport(cfg.Transport, cfg.Secret, 0, -1)
	if err != nil {
		return fail(err)
	}
	for i := range listeners {
		ln, err := bindTr.listen("127.0.0.1:0", "")
		if err != nil {
			return fail(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// The nemesis seam: every address a process will *dial* may be routed
	// through a proxy, while listeners stay bound to the raw sockets.
	wrap := cfg.WrapAddr
	if wrap == nil {
		wrap = func(name, addr string) string { return addr }
	}
	dialAddrs := make([]string, cfg.M)
	for i, a := range addrs {
		dialAddrs[i] = wrap(fmt.Sprintf("mss%d", i), a)
	}

	cfg.ListenAddr = "127.0.0.1:0"
	cfg.MSSAddrs = dialAddrs
	sys, err := NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	lb := &Loopback{Sys: sys, cfg: cfg, rawMSS: addrs}
	lb.Cluster = ClusterConfig{
		Hub:              wrap("hub", sys.Addr()),
		MSS:              dialAddrs,
		M:                cfg.M,
		N:                cfg.N,
		TickNS:           int64(sys.Host.Config().Tick),
		HeartbeatMS:      ceilMS(cfg.HeartbeatEvery),
		DialBackoffMinMS: ceilMS(cfg.DialBackoffMin),
		DialBackoffMaxMS: ceilMS(cfg.DialBackoffMax),
		Transport:        cfg.Transport,
		Secret:           cfg.Secret,
	}
	// The hub bound before the wrapped (possibly proxied) address existed;
	// tell its listener what dialers will present tokens bound to.
	sys.SetAdvertise(lb.Cluster.Hub)

	lb.Nodes = make([]*Node, cfg.M)
	for i := range lb.Nodes {
		n, err := StartNode(NodeConfig{
			ID:       i,
			Cluster:  lb.Cluster,
			Listener: listeners[i],
			FrameTap: cfg.FrameTap,
		})
		if err != nil {
			lb.Stop()
			return nil, err
		}
		lb.Nodes[i] = n
	}
	lb.Clients = make([]*Client, cfg.N)
	for h := range lb.Clients {
		c, err := StartClient(ClientConfig{
			ID:       h,
			Cluster:  lb.Cluster,
			FrameTap: cfg.FrameTap,
		})
		if err != nil {
			lb.Stop()
			return nil, err
		}
		lb.Clients[h] = c
	}
	return lb, nil
}

// KillNode crash-stops relay node i: every socket it holds closes and its
// goroutines exit, exactly as if the process died. The hub's heartbeat
// tracker notices, declares the station dead, and parks its traffic until
// RestartNode brings a new incarnation up.
func (lb *Loopback) KillNode(i int) {
	if n := lb.Nodes[i]; n != nil {
		n.Stop()
	}
}

// RestartNode starts a fresh incarnation of relay node i on the same bind
// address. The new node's hello claims generation 0 ("assign me one"), so
// the hub fences it in as gen+1 and replays the station's unconfirmed
// suffix. Rebinding retries briefly: the dead incarnation's socket may
// still be releasing.
func (lb *Loopback) RestartNode(i int) error {
	lb.KillNode(i)
	tr, err := lb.Cluster.transport(wire.RoleMSS, i)
	if err != nil {
		return err
	}
	var ln net.Listener
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = tr.listen(lb.rawMSS[i], lb.Cluster.MSS[i])
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("netrt: rebind mss%d at %s: %w", i, lb.rawMSS[i], err)
	}
	n, err := StartNode(NodeConfig{
		ID:       i,
		Cluster:  lb.Cluster,
		Listener: ln,
		FrameTap: lb.cfg.FrameTap,
	})
	if err != nil {
		ln.Close()
		return err
	}
	lb.Nodes[i] = n
	return nil
}

// RestartClient crash-stops MH client h and starts a fresh incarnation.
func (lb *Loopback) RestartClient(h int) error {
	if c := lb.Clients[h]; c != nil {
		c.Stop()
	}
	c, err := StartClient(ClientConfig{
		ID:       h,
		Cluster:  lb.Cluster,
		FrameTap: lb.cfg.FrameTap,
	})
	if err != nil {
		return err
	}
	lb.Clients[h] = c
	return nil
}

// Stop tears the whole cluster down: hub first (so the engine stops
// producing traffic), then every node and client.
func (lb *Loopback) Stop() {
	if lb.Sys != nil {
		lb.Sys.Stop()
	}
	for _, n := range lb.Nodes {
		if n != nil {
			n.Stop()
		}
	}
	for _, c := range lb.Clients {
		if c != nil {
			c.Stop()
		}
	}
}

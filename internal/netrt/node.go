package netrt

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/wire"
)

// NodeConfig describes one MSS relay node.
type NodeConfig struct {
	// ID is the station this node carries, in [0, M).
	ID int
	// Cluster is the shared cluster topology.
	Cluster ClusterConfig
	// Listener, when non-nil, is the pre-bound listen socket (the loopback
	// launcher binds all sockets before addresses are exchanged). Nil means
	// listen on Cluster.MSS[ID].
	Listener net.Listener
	// FrameTap observes every frame the node writes (see Config.FrameTap).
	FrameTap func(raw []byte, f wire.Frame)
	// Gen is the incarnation generation claimed in the hub handshake
	// (0: "assign me one" — the hub fences the node in at its last admitted
	// generation plus one, which is what a crash-restarted process wants).
	Gen uint64
}

// Node is an MSS relay: it owns the physical sending end of its station's
// wired channels and downlinks. TData frames arrive from the hub (hop 0),
// wait on the node's due queue (see member), and then cross the last
// physical link: the mesh connection to the destination station, or the
// station end of the attached MH's wireless link. The node confirms wired
// arrivals from its mesh neighbours, and its end of each wireless link
// confirms uplinks and downlinks (see wlink).
type Node struct {
	member
	cfg  NodeConfig
	beat time.Duration // node→client heartbeat interval (0: disabled)

	ln   net.Listener
	mesh []*peer // dialling peers to every other station (self nil)

	linkMu sync.Mutex
	links  map[int32]*wlink // the station end of each attached MH's link
}

// StartNode launches a relay node for cluster station id.
func StartNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Cluster.M {
		return nil, fmt.Errorf("netrt: node id %d out of range (M=%d)", cfg.ID, cfg.Cluster.M)
	}
	n := &Node{
		cfg:   cfg,
		beat:  cfg.Cluster.heartbeat(),
		links: make(map[int32]*wlink),
	}
	n.init(wire.RoleMSS, cfg.ID, cfg.Cluster, cfg.Gen, cfg.FrameTap)
	tr, err := cfg.Cluster.transport(wire.RoleMSS, cfg.ID)
	if err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = tr.listen(cfg.Cluster.MSS[cfg.ID], cfg.Cluster.MSS[cfg.ID])
		if err != nil {
			return nil, err
		}
	} else {
		// Pre-bound by the loopback launcher, before the dialled (possibly
		// nemesis-wrapped) address existed: tell the UDP listener what
		// address inbound connect tokens are bound to.
		setAdvertise(ln, cfg.Cluster.MSS[cfg.ID])
	}
	n.ln = ln

	n.joinHub(cfg.Cluster.Hub, tr, func(wire.Frame) {}, n.Stop)
	n.mesh = make([]*peer, cfg.Cluster.M)
	for j := range n.mesh {
		if j == cfg.ID {
			continue
		}
		n.mesh[j] = n.dialPeer(cfg.Cluster.MSS[j], tr, nil)
		n.mesh[j].start()
	}
	// The hub connection starts last: its first frames may be a resync
	// replay, and the due queue relays a frame that is already due at once
	// — into the mesh, which must be complete by then.
	n.wg.Add(2)
	go n.dueLoop(n.relay)
	n.hub.start()
	go n.acceptLoop()
	if n.beat > 0 {
		n.wg.Add(1)
		go n.heartbeatClients()
	}
	return n, nil
}

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// heartbeatClients pings every attached wireless client each interval; a
// link that stops answering is severed (see wlink.ping), and the client
// re-attaches when it can hear the station again.
func (n *Node) heartbeatClients() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.beat)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		n.linkMu.Lock()
		links := make([]*wlink, 0, len(n.links))
		for _, l := range n.links {
			links = append(links, l)
		}
		n.linkMu.Unlock()
		for _, l := range links {
			l.ping(n.beat)
		}
	}
}

// relay puts a due frame onto its last physical link. A downlink whose MH
// has no link to this station, or whose link does not take it, is
// confirmed here: the transmission into the cell happened whether or not
// anyone was listening.
func (n *Node) relay(f wire.Frame) {
	kind, _, b := n.layout.Decode(int(f.Ch))
	switch kind {
	case engine.ChannelWired:
		if b == n.cfg.ID {
			// Self-loop wired channel: the message never leaves the
			// station.
			n.confirm(f.Ch, f.Seq)
		} else {
			n.mesh[b].send(f)
		}
	case engine.ChannelDown:
		n.linkMu.Lock()
		l := n.links[int32(b)]
		n.linkMu.Unlock()
		if l == nil || !l.send(f) {
			n.confirm(f.Ch, f.Seq)
		}
	}
}

// acceptLoop admits mesh connections from other stations and wireless
// connections from MH clients, telling them apart by the handshake frame.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go n.handshake(conn)
	}
}

// handshake serves one accepted connection until it closes or the node
// stops.
func (n *Node) handshake(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-n.stop:
			conn.Close()
		case <-done:
		}
	}()
	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		return
	}
	switch f.Type {
	case wire.THello:
		// Inbound mesh connection: a peer station relays wired frames here.
		n.meshReader(r)
	case wire.TAttach:
		n.serveClient(conn, r, f.Ch)
	}
}

// meshReader confirms wired frames arriving from a peer station.
func (n *Node) meshReader(r *wire.Reader) {
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		if f.Type == wire.TData && f.Hop == 1 {
			n.confirm(f.Ch, f.Seq)
		}
	}
}

// serveClient registers the station end of MH mh's wireless link, replacing
// (and so dropping) any older one, and serves it until it drops.
func (n *Node) serveClient(conn net.Conn, r *wire.Reader, mh int32) {
	if mh < 0 || int(mh) >= n.cfg.Cluster.N {
		return
	}
	l := newWlink(conn, true, &n.member)
	n.linkMu.Lock()
	old := n.links[mh]
	n.links[mh] = l
	n.linkMu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	l.serve(r)
	n.linkMu.Lock()
	if n.links[mh] == l {
		delete(n.links, mh)
	}
	n.linkMu.Unlock()
}

// Stop shuts the node down and waits for every goroutine to exit.
func (n *Node) Stop() {
	n.halt(func() {
		n.ln.Close()
		for _, p := range n.mesh {
			if p != nil {
				p.close()
			}
		}
	})
}

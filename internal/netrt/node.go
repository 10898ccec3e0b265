package netrt

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/rt"
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

// clientMissK is how many consecutive unanswered node→client heartbeats
// sever a wireless link: the node closes it, flushing the at-least-once set,
// and the client re-dials when it comes back.
const clientMissK = 4

// Node is an MSS relay: it owns the physical sending end of its station's
// wired channels and downlinks. TData frames arrive from the hub (hop 0),
// are stamped with their due time (arrival + latency × tick) as they enter
// a per-channel pipe — one goroutine per channel, handling frames strictly
// in order and waiting only while the head's due time is still ahead, the
// same link model as internal/rt's transport — and then cross the last
// physical link: the mesh connection to the destination station, or the
// wireless connection to the attached MH client. The node confirms wired
// arrivals from its mesh neighbours and owns the at-least-once confirmation
// of its downlinks: a frame radioed to a client that detached (or whose
// connection dropped before the client echoed it) is confirmed by the node
// itself, which matches the model — the engine's deliver closures re-check
// MH state at delivery time.
type Node struct {
	cfg    NodeConfig
	tick   time.Duration
	beat   time.Duration // node→client heartbeat interval (0: disabled)
	layout engine.ChannelLayout

	ln   net.Listener
	hub  *peer
	mesh []*peer // dialling peers to every other station (self nil)

	gen     atomic.Uint64 // generation the hub admitted (TResync ack)
	saidBye atomic.Bool   // orderly hub shutdown seen (supervisors stop restarting)

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	pipeMu sync.Mutex
	pipes  map[int32]*fifo[dueFrame]

	linkMu sync.Mutex
	links  map[int32]*clientLink
}

// clientLink is one attached MH's wireless connection, with the set of
// forwarded downlink frames the client has not yet echoed. The node flushes
// that set as delivered when the link drops: the radio transmission into
// the cell happened whether or not anyone was listening.
type clientLink struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *wire.Writer

	pmu     sync.Mutex
	pending map[pendKey]struct{}
	flushed bool

	// Node→client heartbeat state (guarded by pmu): the link is severed
	// after clientMissK consecutive unanswered pings.
	beatSeq uint64 // last ping sent
	beatAck uint64 // last ping echoed
	missed  int
}

// take removes k from the pending set, reporting whether it was present
// (and therefore still owed a confirmation).
func (l *clientLink) take(k pendKey) bool {
	l.pmu.Lock()
	defer l.pmu.Unlock()
	if _, ok := l.pending[k]; !ok {
		return false
	}
	delete(l.pending, k)
	return true
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
		cfg:    cfg,
		tick:   cfg.Cluster.tick(),
		beat:   cfg.Cluster.heartbeat(),
		layout: engine.ChannelLayout{M: cfg.Cluster.M, N: cfg.Cluster.N},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		pipes:  make(map[int32]*fifo[dueFrame]),
		links:  make(map[int32]*clientLink),
	}
	n.gen.Store(cfg.Gen)
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

	// The hello claims the node's current generation: cfg.Gen on the first
	// connection, whatever TResync assigned on re-dials (see peer.hello).
	hello := func() wire.Frame {
		return wire.Frame{Type: wire.THello, Ch: -1, Payload: wire.Hello{
			Role: wire.RoleMSS, ID: int32(cfg.ID),
			M: int32(cfg.Cluster.M), N: int32(cfg.Cluster.N),
			Gen: n.gen.Load(),
		}.Encode()}
	}
	bmin, bmax := cfg.Cluster.backoffBounds()

	n.hub = newPeer(fmt.Sprintf("mss%d->hub", cfg.ID), &n.wg, n.onHubFrame)
	n.hub.hello = hello
	n.hub.tap = cfg.FrameTap
	n.hub.backoffMin, n.hub.backoffMax = bmin, bmax
	n.hub.dial = func() (net.Conn, error) { return tr.dial(cfg.Cluster.Hub) }

	n.mesh = make([]*peer, cfg.Cluster.M)
	for j := range n.mesh {
		if j == cfg.ID {
			continue
		}
		addr := cfg.Cluster.MSS[j]
		p := newPeer(fmt.Sprintf("mss%d->mss%d", cfg.ID, j), &n.wg, nil)
		p.hello = hello
		p.tap = cfg.FrameTap
		p.backoffMin, p.backoffMax = bmin, bmax
		p.dial = func() (net.Conn, error) { return tr.dial(addr) }
		n.mesh[j] = p
		p.start()
	}
	// The hub connection starts last: its first frames may be a resync
	// replay, and a pipe relays a frame that is already due at once — into
	// the mesh, which must be complete by then.
	n.hub.start()

	n.wg.Add(1)
	go n.acceptLoop()
	if n.beat > 0 {
		n.wg.Add(1)
		go n.heartbeatClients()
	}
	return n, nil
}

// SaidBye reports whether the hub sent an orderly TBye — the signal a
// supervisor (cmd/mobilenode -supervise) uses to stop restarting the node.
func (n *Node) SaidBye() bool { return n.saidBye.Load() }

// Gen reports the incarnation generation the hub admitted for this node.
func (n *Node) Gen() uint64 { return n.gen.Load() }

// Addr returns the node's bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Wait blocks until the node has shut down (Stop or a TBye from the hub).
func (n *Node) Wait() { <-n.done }

// onHubFrame handles frames from the hub connection (reader goroutine).
func (n *Node) onHubFrame(f wire.Frame) {
	switch f.Type {
	case wire.TData:
		n.pipe(f.Ch).put(stamp(f, n.tick))
	case wire.THeartbeat:
		if f.Hop == 0 { // hub ping: answer in kind
			n.hub.send(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1})
		}
	case wire.TResync:
		// The hub admitted (or reassigned) our incarnation generation. Any
		// replayed frames follow as ordinary TData through the pipes.
		n.gen.Store(f.Seq)
	case wire.TBye:
		n.saidBye.Store(true)
		go n.Stop() // not inline: Stop waits for this very reader
	}
}

// heartbeatClients pings every attached wireless client each interval and
// severs links that stop answering: the serving cell's radio contact is
// gone, so the pending downlinks flush (delivered-into-the-cell) and the
// client re-attaches when it can hear the station again.
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
		links := make([]*clientLink, 0, len(n.links))
		for _, l := range n.links {
			links = append(links, l)
		}
		n.linkMu.Unlock()
		for _, l := range links {
			l.pmu.Lock()
			if l.beatSeq > l.beatAck {
				l.missed++
			} else {
				l.missed = 0
			}
			dead := l.missed >= clientMissK
			l.beatSeq++
			seq := l.beatSeq
			l.pmu.Unlock()
			if dead {
				l.conn.Close() // its reader flushes the pending set
				continue
			}
			l.wmu.Lock()
			_ = l.w.WriteFrame(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: seq})
			l.wmu.Unlock()
		}
	}
}

// pipe returns (creating on demand) the link pipe for channel ch.
func (n *Node) pipe(ch int32) *fifo[dueFrame] {
	n.pipeMu.Lock()
	defer n.pipeMu.Unlock()
	q, ok := n.pipes[ch]
	if ok {
		return q
	}
	q = newFifo[dueFrame]()
	n.pipes[ch] = q
	n.wg.Add(1)
	go n.forward(q)
	return q
}

// forward drains one channel pipe: wait out whatever is left of each
// frame's latency, then relay it onto its last physical link — strictly in
// order, the model's per-channel FIFO.
func (n *Node) forward(q *fifo[dueFrame]) {
	defer n.wg.Done()
	var timer rt.DueTimer
	for {
		batch, epoch, ok := q.peek()
		if !ok {
			return
		}
		for _, d := range batch {
			if !timer.Wait(d.due, n.stop) {
				return
			}
			n.relay(d.f)
		}
		q.consume(epoch, len(batch))
	}
}

// relay puts a due frame onto its last physical link.
func (n *Node) relay(f wire.Frame) {
	f.Hop = 1
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
		n.forwardDown(int32(b), f)
	}
}

// forwardDown radios a downlink frame to the attached client, or confirms
// it immediately when no one is listening in the cell.
func (n *Node) forwardDown(mh int32, f wire.Frame) {
	n.linkMu.Lock()
	link := n.links[mh]
	n.linkMu.Unlock()
	if link == nil {
		n.confirm(f.Ch, f.Seq)
		return
	}
	k := pendKey{f.Ch, f.Seq}
	link.pmu.Lock()
	if link.flushed {
		link.pmu.Unlock()
		n.confirm(f.Ch, f.Seq)
		return
	}
	link.pending[k] = struct{}{}
	link.pmu.Unlock()

	link.wmu.Lock()
	err := link.w.WriteFrame(f)
	link.wmu.Unlock()
	if err != nil && link.take(k) {
		n.confirm(f.Ch, f.Seq)
	}
}

// confirm reports (ch, seq) delivered to the hub.
func (n *Node) confirm(ch int32, seq uint64) {
	n.hub.send(wire.Frame{Type: wire.TDelivered, Ch: ch, Seq: seq})
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

func (n *Node) handshake(conn net.Conn) {
	defer n.wg.Done()
	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		conn.Close()
		return
	}
	switch f.Type {
	case wire.THello:
		// Inbound mesh connection: a peer station relays wired frames here.
		n.wg.Add(1)
		go n.meshReader(conn, r)
	case wire.TAttach:
		n.attachClient(conn, r, f.Ch)
	default:
		conn.Close()
	}
}

// meshReader confirms wired frames arriving from a peer station.
func (n *Node) meshReader(conn net.Conn, r *wire.Reader) {
	defer n.wg.Done()
	defer conn.Close()
	n.closeOnStop(conn)
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

// closeOnStop ties a raw accepted connection's lifetime to the node's.
func (n *Node) closeOnStop(conn net.Conn) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		<-n.stop
		conn.Close()
	}()
}

// attachClient registers a wireless connection from MH mh and serves it:
// uplink TData is confirmed to the hub and echoed back to the client (which
// prunes its own at-least-once set); TDelivered echoes prune and confirm
// forwarded downlinks. When the link drops, every un-echoed downlink is
// confirmed as delivered-into-the-cell.
func (n *Node) attachClient(conn net.Conn, r *wire.Reader, mh int32) {
	if mh < 0 || int(mh) >= n.cfg.Cluster.N {
		conn.Close()
		return
	}
	w := wire.NewWriter(conn)
	w.Tap = n.cfg.FrameTap
	link := &clientLink{conn: conn, w: w, pending: make(map[pendKey]struct{})}
	n.linkMu.Lock()
	old := n.links[mh]
	n.links[mh] = link
	n.linkMu.Unlock()
	if old != nil {
		old.conn.Close() // its reader flushes the old pending set
	}
	n.closeOnStop(conn)
	n.wg.Add(1)
	go n.clientReader(link, r, mh)
}

func (n *Node) clientReader(link *clientLink, r *wire.Reader, mh int32) {
	defer n.wg.Done()
	unflushed := false // an echo sits in link.w's buffer
	for {
		// Flush when idle: echoes ride one write while further input is
		// already buffered, and never wait behind a read that can block.
		if unflushed && !r.FrameBuffered() {
			link.wmu.Lock()
			_ = link.w.Flush()
			link.wmu.Unlock()
			unflushed = false
		}
		f, err := r.ReadFrame()
		if err != nil {
			break
		}
		switch f.Type {
		case wire.TData:
			// Uplink arrival: confirm to the hub, echo to the client.
			n.confirm(f.Ch, f.Seq)
			link.wmu.Lock()
			_ = link.w.BufferFrame(wire.Frame{Type: wire.TDelivered, Ch: f.Ch, Seq: f.Seq})
			link.wmu.Unlock()
			unflushed = true
		case wire.TDelivered:
			// Downlink echo: the client saw the frame.
			if link.take(pendKey{f.Ch, f.Seq}) {
				n.confirm(f.Ch, f.Seq)
			}
		case wire.THeartbeat:
			if f.Hop == 1 { // heartbeat answer: the client is still listening
				link.pmu.Lock()
				if f.Seq > link.beatAck {
					link.beatAck = f.Seq
					link.missed = 0
				}
				link.pmu.Unlock()
			}
		}
	}
	link.conn.Close()
	n.linkMu.Lock()
	if n.links[mh] == link {
		delete(n.links, mh)
	}
	n.linkMu.Unlock()
	// Flush: every forwarded-but-unechoed downlink was still transmitted
	// into the cell; the model decides what a delivery to a departed MH
	// means.
	link.pmu.Lock()
	link.flushed = true
	keys := make([]pendKey, 0, len(link.pending))
	for k := range link.pending {
		keys = append(keys, k)
	}
	link.pending = nil
	link.pmu.Unlock()
	for _, k := range keys {
		n.confirm(k.ch, k.seq)
	}
}

// Stop shuts the node down and waits for every goroutine to exit.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.ln.Close()
		n.pipeMu.Lock()
		for _, q := range n.pipes {
			q.close()
		}
		n.pipeMu.Unlock()
		n.hub.close()
		for _, p := range n.mesh {
			if p != nil {
				p.close()
			}
		}
		n.linkMu.Lock()
		for _, l := range n.links {
			l.conn.Close()
		}
		n.linkMu.Unlock()
		n.wg.Wait()
		close(n.done)
	})
}

package netrt

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/rt"
	"mobiledist/internal/wire"
)

// ClientConfig describes one MH client process.
type ClientConfig struct {
	// ID is the mobile host this client embodies, in [0, N).
	ID int
	// Cluster is the shared cluster topology.
	Cluster ClusterConfig
	// FrameTap observes every frame the client writes (see Config.FrameTap).
	FrameTap func(raw []byte, f wire.Frame)
	// Gen is the incarnation generation claimed in the hub handshake
	// (0: "assign me one"; see NodeConfig.Gen).
	Gen uint64
	// Token, when non-nil and the cluster transport is UDP, is an
	// out-of-band credential blob (token || key, as printed by mobilenode
	// -mint-token) presented on every dial instead of minting fresh
	// tokens from Cluster.Secret. It must have been minted for every
	// address the client may roam to (hub and all stations).
	Token []byte
}

// Client is a mobile host on the wireless tier. It holds one connection to
// the hub (control + uplink hop 0) and at most one wireless connection to
// its current serving MSS node. TRetarget frames from the hub's mobility
// relay move the wireless connection between stations — dialling the new
// cell with backoff, attaching with TAttach, and reporting TAttached — so
// every leave/join handoff is a physical re-dial. Uplink frames are stamped
// with their due time as they arrive from the hub, leave the uplink pipe in
// order once due, and cross the wireless link; downlink frames arriving on
// it are echoed back so the serving node can confirm them.
//
// At-least-once: the client keeps the set of uplink frames written but not
// yet echoed by the node. If the wireless connection drops (a handoff, or
// plain loss of carrier), the set is flushed as delivered straight to the
// hub — the transmission left the antenna; the model's deliver closure
// decides what arrival means — and the hub's sequence check suppresses the
// duplicate if the node confirmed it too.
type Client struct {
	cfg  ClientConfig
	tick time.Duration
	tr   transport

	gen     atomic.Uint64 // generation the hub admitted (TResync ack)
	saidBye atomic.Bool   // orderly hub shutdown seen

	hub *peer
	upq *fifo[dueFrame]

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	target  wire.Handoff // latest retarget (Addr == "" means detached)
	wconn   net.Conn
	wmu     sync.Mutex // serializes writes on the wireless connection
	ww      *wire.Writer
	wgen    uint64
	pending map[pendKey]struct{} // written-but-unechoed uplink frames
	closed  bool
}

// StartClient launches a client for cluster mobile host id.
func StartClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Cluster.N {
		return nil, fmt.Errorf("netrt: client id %d out of range (N=%d)", cfg.ID, cfg.Cluster.N)
	}
	c := &Client{
		cfg:     cfg,
		tick:    cfg.Cluster.tick(),
		upq:     newFifo[dueFrame](),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		pending: make(map[pendKey]struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.gen.Store(cfg.Gen)
	tr, err := cfg.Cluster.transport(wire.RoleMH, cfg.ID)
	if err != nil {
		return nil, err
	}
	if len(cfg.Token) > 0 {
		if ut, ok := tr.(*udpTransport); ok {
			if err := ut.useStaticBlob(cfg.Token); err != nil {
				return nil, err
			}
		}
	}
	c.tr = tr

	c.hub = newPeer(fmt.Sprintf("mh%d->hub", cfg.ID), &c.wg, c.onHubFrame)
	c.hub.hello = func() wire.Frame {
		return wire.Frame{Type: wire.THello, Ch: -1, Payload: wire.Hello{
			Role: wire.RoleMH, ID: int32(cfg.ID),
			M: int32(cfg.Cluster.M), N: int32(cfg.Cluster.N),
			Gen: c.gen.Load(),
		}.Encode()}
	}
	c.hub.tap = cfg.FrameTap
	c.hub.backoffMin, c.hub.backoffMax = cfg.Cluster.backoffBounds()
	c.hub.dial = func() (net.Conn, error) { return c.tr.dial(cfg.Cluster.Hub) }
	c.hub.start()

	c.wg.Add(1)
	go c.uplinkLoop()
	c.wg.Add(1)
	go c.wirelessLoop()
	return c, nil
}

// Wait blocks until the client has shut down (Stop or a TBye from the hub).
func (c *Client) Wait() { <-c.done }

// SaidBye reports whether the hub sent an orderly TBye (see Node.SaidBye).
func (c *Client) SaidBye() bool { return c.saidBye.Load() }

// Gen reports the incarnation generation the hub admitted for this client.
func (c *Client) Gen() uint64 { return c.gen.Load() }

// onHubFrame handles frames from the hub connection (reader goroutine).
func (c *Client) onHubFrame(f wire.Frame) {
	switch f.Type {
	case wire.TData:
		c.upq.put(stamp(f, c.tick))
	case wire.TRetarget:
		h, err := wire.DecodeHandoff(f.Payload)
		if err == nil {
			c.retarget(h)
		}
	case wire.THeartbeat:
		if f.Hop == 0 { // hub ping: answer in kind
			c.hub.send(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1})
		}
	case wire.TResync:
		c.gen.Store(f.Seq)
	case wire.TBye:
		c.saidBye.Store(true)
		go c.Stop() // not inline: Stop waits for this very reader
	}
}

// retarget adopts a newer handoff: the old wireless connection (if any)
// drops — flushing its at-least-once set — and the dialler goes after the
// new cell. Stale generations (raced by a newer retarget) are ignored.
func (c *Client) retarget(h wire.Handoff) {
	c.mu.Lock()
	if h.Gen <= c.target.Gen {
		c.mu.Unlock()
		return
	}
	c.target = h
	conn := c.wconn
	c.mu.Unlock()
	if conn != nil {
		conn.Close() // wirelessLoop's reader observes EOF and cleans up
	}
	c.cond.Broadcast()
}

// uplinkLoop drains the MH's single uplink pipe: wait out whatever is left
// of each frame's latency, then transmit it over the current wireless
// connection — or, if the MH is detached (between cells or disconnected),
// resolve it straight to the hub, exactly as the model's always-delivering
// transport does.
func (c *Client) uplinkLoop() {
	defer c.wg.Done()
	var timer rt.DueTimer
	for {
		batch, epoch, ok := c.upq.peek()
		if !ok {
			return
		}
		for _, d := range batch {
			if !timer.Wait(d.due, c.stop) {
				return
			}
			d.f.Hop = 1
			c.transmitUp(d.f)
		}
		c.upq.consume(epoch, len(batch))
	}
}

// transmitUp sends one uplink frame over the wireless link, blocking while
// a serving cell exists but its connection is still being established.
func (c *Client) transmitUp(f wire.Frame) {
	k := pendKey{f.Ch, f.Seq}
	for {
		c.mu.Lock()
		for !c.closed && c.target.Addr != "" && c.wconn == nil {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.target.Addr == "" {
			c.mu.Unlock()
			c.hub.send(wire.Frame{Type: wire.TDelivered, Ch: f.Ch, Seq: f.Seq})
			return
		}
		w, gen := c.ww, c.wgen
		c.pending[k] = struct{}{}
		c.mu.Unlock()

		c.wmu.Lock()
		err := w.WriteFrame(f)
		c.wmu.Unlock()
		if err == nil {
			return
		}
		c.mu.Lock()
		delete(c.pending, k) // not written: retry, don't double-resolve
		c.mu.Unlock()
		c.dropWireless(gen)
	}
}

// wirelessLoop keeps the wireless connection matched to the current
// target: dial (with backoff) whenever a cell is assigned and no
// connection stands, attach, notify the hub, and read the link.
func (c *Client) wirelessLoop() {
	defer c.wg.Done()
	bmin, bmax := c.cfg.Cluster.backoffBounds()
	backoff := bmin
	for {
		c.mu.Lock()
		for !c.closed && (c.target.Addr == "" || c.wconn != nil) {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		target := c.target
		c.mu.Unlock()

		conn, err := c.tr.dial(target.Addr)
		if err != nil {
			select {
			case <-c.stop:
				return
			case <-time.After(jitterBackoff(backoff)):
			}
			backoff *= 2
			if backoff > bmax {
				backoff = bmax
			}
			continue
		}
		backoff = bmin
		w := wire.NewWriter(conn)
		w.Tap = c.cfg.FrameTap
		if err := w.WriteFrame(wire.Frame{Type: wire.TAttach, Ch: int32(c.cfg.ID)}); err != nil {
			conn.Close()
			continue
		}

		c.mu.Lock()
		if c.closed || c.target.Gen != target.Gen {
			c.mu.Unlock()
			conn.Close() // a retarget raced the dial; chase the new cell
			continue
		}
		c.wgen++
		gen := c.wgen
		c.wconn, c.ww = conn, w
		c.cond.Broadcast()
		c.mu.Unlock()

		c.hub.send(wire.Frame{Type: wire.TAttached, Ch: int32(c.cfg.ID), Seq: target.Gen})
		c.wg.Add(1)
		go c.wirelessReader(conn, gen)
	}
}

// wirelessReader serves one wireless connection: downlink TData is echoed
// back (the node confirms it to the hub), TDelivered echoes prune the
// uplink at-least-once set. On any error the connection is torn down and
// unechoed uplinks are flushed to the hub.
func (c *Client) wirelessReader(conn net.Conn, gen uint64) {
	defer c.wg.Done()
	r := wire.NewReader(conn)
	w := func() *wire.Writer { // the writer paired with this conn
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.wgen == gen {
			return c.ww
		}
		return nil
	}
	unflushed := false // an echo sits in the writer's buffer
	for {
		// Flush when idle, as Node.clientReader does.
		if unflushed && !r.FrameBuffered() {
			if ww := w(); ww != nil {
				c.wmu.Lock()
				_ = ww.Flush()
				c.wmu.Unlock()
			}
			unflushed = false
		}
		f, err := r.ReadFrame()
		if err != nil {
			break
		}
		switch f.Type {
		case wire.TData:
			if ww := w(); ww != nil {
				c.wmu.Lock()
				_ = ww.BufferFrame(wire.Frame{Type: wire.TDelivered, Ch: f.Ch, Seq: f.Seq})
				c.wmu.Unlock()
				unflushed = true
			}
		case wire.TDelivered:
			c.mu.Lock()
			delete(c.pending, pendKey{f.Ch, f.Seq})
			c.mu.Unlock()
		case wire.THeartbeat:
			if f.Hop == 0 { // serving node's ping: answer on the same link
				if ww := w(); ww != nil {
					c.wmu.Lock()
					_ = ww.WriteFrame(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1})
					c.wmu.Unlock()
				}
			}
		}
	}
	c.dropWireless(gen)
}

// dropWireless tears down the wireless connection of generation gen and
// flushes its written-but-unechoed uplink frames as delivered: they left
// the antenna, and the hub suppresses duplicates if the node confirmed
// them too.
func (c *Client) dropWireless(gen uint64) {
	c.mu.Lock()
	if c.wgen != gen || c.wconn == nil {
		c.mu.Unlock()
		return
	}
	c.wconn.Close()
	c.wconn, c.ww = nil, nil
	flush := make([]pendKey, 0, len(c.pending))
	for k := range c.pending {
		flush = append(flush, k)
	}
	c.pending = make(map[pendKey]struct{})
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, k := range flush {
		c.hub.send(wire.Frame{Type: wire.TDelivered, Ch: k.ch, Seq: k.seq})
	}
}

// Stop shuts the client down and waits for every goroutine to exit.
func (c *Client) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		if c.wconn != nil {
			c.wconn.Close()
			c.wconn, c.ww = nil, nil
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		close(c.stop)
		c.upq.close()
		c.hub.close()
		c.wg.Wait()
		close(c.done)
	})
}

package netrt

import (
	"fmt"
	"net"
	"sync"

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
// the hub (control + uplink hop 0) and at most one wireless link to its
// current serving MSS node. TRetarget frames from the hub's mobility relay
// move the link between stations — dialling the new cell with backoff,
// attaching with TAttach, and reporting TAttached — so every leave/join
// handoff is a physical re-dial. Uplink frames wait on the client's due
// queue (see member) from their arrival from the hub until they are due,
// and then cross the client's end of the wireless link (see wlink), which
// holds each until the node echoes it. An uplink due while the MH is
// detached (between cells or disconnected), or one the link does not take,
// is resolved straight to the hub — the transmission left the antenna; the
// model's deliver closure decides what arrival means.
type Client struct {
	member
	cfg ClientConfig
	tr  transport

	mu     sync.Mutex
	cond   *sync.Cond
	target wire.Handoff // latest retarget (Addr == "" means detached)
	link   *wlink       // the client end of the standing wireless link
	closed bool
}

// StartClient launches a client for cluster mobile host id.
func StartClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Cluster.N {
		return nil, fmt.Errorf("netrt: client id %d out of range (N=%d)", cfg.ID, cfg.Cluster.N)
	}
	c := &Client{cfg: cfg}
	c.cond = sync.NewCond(&c.mu)
	c.init(wire.RoleMH, cfg.ID, cfg.Cluster, cfg.Gen, cfg.FrameTap)
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

	c.joinHub(cfg.Cluster.Hub, tr, func(f wire.Frame) {
		if f.Type == wire.TRetarget {
			if h, err := wire.DecodeHandoff(f.Payload); err == nil {
				c.retarget(h)
			}
		}
	}, c.Stop)
	c.hub.start()

	c.wg.Add(2)
	go c.dueLoop(c.transmitUp)
	go c.wirelessLoop()
	return c, nil
}

// retarget adopts a newer handoff: the standing link (if any) drops —
// resolving what it held — and the dialler goes after the new cell. Stale
// generations (raced by a newer retarget) are ignored.
func (c *Client) retarget(h wire.Handoff) {
	c.mu.Lock()
	if h.Gen <= c.target.Gen {
		c.mu.Unlock()
		return
	}
	c.target = h
	l := c.link
	c.mu.Unlock()
	if l != nil {
		l.conn.Close() // its serve drops it
	}
	c.cond.Broadcast()
}

// transmitUp sends one due uplink frame over the wireless link, blocking
// while a serving cell exists but its link is still being established.
func (c *Client) transmitUp(f wire.Frame) {
	c.mu.Lock()
	for !c.closed && c.target.Addr != "" && c.link == nil {
		c.cond.Wait()
	}
	l, closed := c.link, c.closed
	if c.target.Addr == "" {
		l = nil
	}
	c.mu.Unlock()
	if !closed && (l == nil || !l.send(f)) {
		c.confirm(f.Ch, f.Seq)
	}
}

// wirelessLoop keeps the wireless link matched to the current target: dial
// (with backoff, always the latest cell) whenever a cell is assigned and no
// link stands, attach, notify the hub, and serve the link until it drops.
func (c *Client) wirelessLoop() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.closed && (c.target.Addr == "" || c.link != nil) {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		// Each attempt re-reads the target: a move during the backoff redirects it.
		var conn net.Conn
		var target wire.Handoff
		if !redial(c.stop, func() (err error) {
			c.mu.Lock()
			target = c.target
			c.mu.Unlock()
			if target.Addr == "" {
				return nil // detached meanwhile: wait at the top
			}
			conn, err = c.tr.dial(target.Addr)
			return err
		}) {
			return
		}
		if conn == nil {
			continue
		}
		l := newWlink(conn, false, &c.member)
		if l.write(wire.Frame{Type: wire.TAttach, Ch: int32(c.cfg.ID)}) != nil {
			continue // write closed the connection
		}
		c.mu.Lock()
		if c.closed || c.target.Gen != target.Gen {
			c.mu.Unlock()
			conn.Close() // a retarget raced the dial; chase the new cell
			continue
		}
		c.link = l
		c.cond.Broadcast()
		c.mu.Unlock()

		c.hub.send(wire.Frame{Type: wire.TAttached, Ch: int32(c.cfg.ID), Seq: target.Gen})
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			l.serve(wire.NewReader(conn))
			c.mu.Lock()
			if c.link == l {
				c.link = nil
				c.cond.Broadcast()
			}
			c.mu.Unlock()
		}()
	}
}

// Stop shuts the client down and waits for every goroutine to exit.
func (c *Client) Stop() {
	c.halt(func() {
		c.mu.Lock()
		c.closed = true
		if c.link != nil {
			c.link.conn.Close()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	})
}

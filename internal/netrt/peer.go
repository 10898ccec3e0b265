package netrt

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"mobiledist/internal/wire"
)

// Default reconnect backoff bounds for dialling peers; Config/ClusterConfig
// fields override them (see backoffMin/backoffMax on ClusterConfig).
const (
	defaultDialBackoffMin = 5 * time.Millisecond
	defaultDialBackoffMax = 250 * time.Millisecond
)

// jitterBackoff spreads a backoff delay uniformly over [d/2, d), so a fleet
// of restarting processes doesn't thundering-herd the hub on synchronized
// retry schedules. Uses math/rand: reconnect pacing is operational noise,
// not part of any determinism contract.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// peer is one logical neighbour of a cluster process: a persistent outbox
// of frames plus whatever TCP connection currently reaches the neighbour.
// The outbox is the FIFO unit — frames written to one peer arrive in order
// because a single writer goroutine drains the queue onto one connection at
// a time, and a batch is only consumed after it was written and flushed, so
// a dropped connection retries it whole on the next one. Peers are either
// dialling (they own reconnection with capped, jittered exponential
// backoff) or accept-managed (the owner hands them each new inbound
// connection).
type peer struct {
	name string
	// onFrame, when non-nil, handles frames read from the current
	// connection. It is called on the connection's reader goroutine.
	onFrame func(f wire.Frame)
	// onChange, when non-nil, is invoked after the connection state flips
	// (installed or dropped). It is always called outside p.mu, so it may
	// take other locks (the hub's liveness table) and call back into
	// connected().
	onChange func()
	// hello, when non-nil, supplies the frame written first on every new
	// dialled connection. It is a closure, not a fixed frame, because the
	// handshake carries the process's current incarnation generation — a
	// reconnect after the hub assigned one must claim it, or every
	// connection flap would look like a fresh incarnation and trigger a
	// needless resync replay.
	hello func() wire.Frame
	// dial, when non-nil, makes this a dialling peer.
	dial func() (net.Conn, error)
	// tap, when non-nil, observes every written frame with its wire bytes.
	tap func(raw []byte, f wire.Frame)
	// backoffMin/backoffMax bound the dialler's reconnect backoff; zero
	// values fall back to the package defaults.
	backoffMin, backoffMax time.Duration

	out  *fifo[wire.Frame]
	stop chan struct{}
	wg   *sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	conn   net.Conn
	w      *wire.Writer
	gen    uint64
	closed bool

	closeOnce sync.Once
}

// newPeer builds a peer; start must be called to launch its goroutines.
func newPeer(name string, wg *sync.WaitGroup, onFrame func(wire.Frame)) *peer {
	p := &peer{
		name:    name,
		onFrame: onFrame,
		out:     newFifo[wire.Frame](),
		stop:    make(chan struct{}),
		wg:      wg,
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// backoff returns the effective reconnect bounds.
func (p *peer) backoff() (min, max time.Duration) {
	min, max = p.backoffMin, p.backoffMax
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

// send queues f for delivery, reporting false after close.
func (p *peer) send(f wire.Frame) bool { return p.out.put(f) }

// connected reports whether a live connection is installed.
func (p *peer) connected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != nil
}

// currentConn returns the installed connection, or nil (for /status
// introspection of transport-level counters).
func (p *peer) currentConn() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// outboxDepth reports the number of queued frames (for /status).
func (p *peer) outboxDepth() int { return p.out.depth() }

// clearOutbox drops every queued frame (dead-peer handling; the resync
// replay re-sends the unconfirmed suffix in order).
func (p *peer) clearOutbox() { p.out.clear() }

// flush waits (condition-signaled) for the outbox to drain, giving up at
// the deadline or while no connection stands to drain it.
func (p *peer) flush(deadline time.Time) bool {
	return p.out.waitDrained(deadline, func() bool { return !p.connected() })
}

// dropCurrent force-closes whatever connection is installed (tests and
// chaos tooling; the peer reconnects or re-attaches as usual).
func (p *peer) dropCurrent() {
	p.mu.Lock()
	gen := p.gen
	p.mu.Unlock()
	p.dropConn(gen)
}

// start launches the writer loop and, for dialling peers, the dialler.
func (p *peer) start() {
	p.wg.Add(1)
	go p.writeLoop()
	if p.dial != nil {
		p.wg.Add(1)
		go p.dialLoop()
	}
}

// writeLoop drains the outbox onto whatever connection is current: take
// everything queued, buffer it, flush once. At depth 1 that is a write per
// frame, exactly as unbatched; under load one write(2) carries the run. The
// batch is peeked after the connection is known, so what goes out is the
// outbox as it stands now, not as it stood before a reconnect.
func (p *peer) writeLoop() {
	defer p.wg.Done()
	for {
		w, gen, ok := p.writer()
		if !ok {
			return
		}
		batch, epoch, ok := p.out.peek()
		if !ok {
			return
		}
		if err := writeBatch(w, batch); err != nil {
			p.dropConn(gen)
			continue // retry the whole batch on the next connection
		}
		p.out.consume(epoch, len(batch))
	}
}

// writeBatch buffers every frame of batch and flushes once.
func writeBatch(w *wire.Writer, batch []wire.Frame) error {
	for _, f := range batch {
		if err := w.BufferFrame(f); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writer blocks until a connection is installed or the peer closes.
func (p *peer) writer() (*wire.Writer, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.conn == nil && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return nil, 0, false
	}
	return p.w, p.gen, true
}

// dialLoop (re)establishes the connection whenever none is current.
func (p *peer) dialLoop() {
	defer p.wg.Done()
	min, max := p.backoff()
	backoff := min
	for {
		p.mu.Lock()
		for p.conn != nil && !p.closed {
			p.cond.Wait()
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		conn, err := p.dial()
		if err != nil {
			select {
			case <-p.stop:
				return
			case <-time.After(jitterBackoff(backoff)):
			}
			backoff *= 2
			if backoff > max {
				backoff = max
			}
			continue
		}
		backoff = min
		w := wire.NewWriter(conn)
		w.Tap = p.tap
		if p.hello != nil {
			if err := w.WriteFrame(p.hello()); err != nil {
				conn.Close()
				continue
			}
		}
		p.install(conn, w, wire.NewReader(conn))
	}
}

// install publishes conn as the current connection and spawns its reader.
// Accept-managed owners call this directly (attach) with the handshake
// reader so buffered bytes are not lost; a previous connection is dropped.
func (p *peer) install(conn net.Conn, w *wire.Writer, r *wire.Reader) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.gen++
	gen := p.gen
	p.conn, p.w = conn, w
	p.cond.Broadcast()
	p.mu.Unlock()
	p.connChanged()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			f, err := r.ReadFrame()
			if err != nil {
				p.dropConn(gen)
				return
			}
			if p.onFrame != nil {
				p.onFrame(f)
			}
		}
	}()
}

// attach hands an accepted connection (whose handshake frame was already
// read through r) to the peer.
func (p *peer) attach(conn net.Conn, r *wire.Reader) {
	w := wire.NewWriter(conn)
	w.Tap = p.tap
	p.install(conn, w, r)
}

// dropConn tears down the connection of generation gen (stale generations
// are ignored, so a replaced connection's reader cannot kill its successor).
func (p *peer) dropConn(gen uint64) {
	p.mu.Lock()
	if p.gen != gen || p.conn == nil {
		p.mu.Unlock()
		return
	}
	p.conn.Close()
	p.conn, p.w = nil, nil
	p.cond.Broadcast()
	p.mu.Unlock()
	p.connChanged()
}

// connChanged notifies the owner and any outbox drain waiters of a
// connection-state flip. Never called with p.mu held: the owner's callback
// and the queue wake-up both take other locks.
func (p *peer) connChanged() {
	p.out.wake()
	if p.onChange != nil {
		p.onChange()
	}
}

// close shuts the peer down: the writer stops (even with frames queued),
// the dialler stops, and the current connection closes, unblocking its
// reader.
func (p *peer) close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		if p.conn != nil {
			p.conn.Close()
			p.conn, p.w = nil, nil
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		close(p.stop)
		p.out.close()
		p.connChanged()
	})
}

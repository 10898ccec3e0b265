package netrt

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/rt"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// This file is what a relay node and an MH client share: the wireless link
// between them (wlink, one type for both of its ends), their membership of
// the cluster (member: the hub connection, the incarnation generation, the
// lifecycle and the process's one due queue), and the one reconnect loop
// (redial).

// Reconnect pacing: a dialler waits from dialBackoffMin after its first
// failure, doubling up to dialBackoffMax.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
)

// clientMissK is how many consecutive unanswered node→client heartbeats
// sever a wireless link: the node closes it, resolving what it held, and
// the client re-dials when it comes back.
const clientMissK = 4

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

// redial calls dial until it succeeds, waiting a capped, jittered,
// doubling backoff after each failure. It reports false if stop closed
// first.
func redial(stop <-chan struct{}, dial func() error) bool {
	for backoff := dialBackoffMin; dial() != nil; backoff = min(2*backoff, dialBackoffMax) {
		select {
		case <-stop:
			return false
		case <-time.After(jitterBackoff(backoff)):
		}
	}
	return true
}

// pendKey identifies one frame a wireless link wrote and its far end has
// not yet echoed.
type pendKey struct {
	ch  int32
	seq uint64
}

// member is a relay node's or an MH client's place in the cluster: one
// connection to the hub, the incarnation generation the hub admitted, a
// lifecycle, and the process's one due queue. Node and Client embed it.
type member struct {
	self   wire.Hello // role, id and topology of every hello; Gen is read per dial
	layout engine.ChannelLayout
	tap    func(raw []byte, f wire.Frame)
	hub    *peer

	gen      atomic.Uint64 // generation the hub admitted (TResync ack)
	saidBye  atomic.Bool   // orderly hub shutdown seen (supervisors stop restarting)
	rejected atomic.Int64  // TData frames on channels this process does not send on

	tick  time.Duration
	epoch time.Time  // due times are wall nanoseconds since it
	dueMu sync.Mutex // guards fifo and due
	fifo  *engine.FIFOClock
	due   sim.Queue[sim.Due[wire.Frame]]
	wake  chan struct{} // capacity 1: a push, or the head's timer fired
	timer *time.Timer   // dueLoop's; nil until a head was still ahead

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// init readies m for cluster process (role, id), claiming generation gen.
func (m *member) init(role wire.Role, id int, cc ClusterConfig, gen uint64, tap func(raw []byte, f wire.Frame)) {
	m.self = wire.Hello{Role: role, ID: int32(id), M: int32(cc.M), N: int32(cc.N)}
	m.layout = engine.ChannelLayout{M: cc.M, N: cc.N}
	m.tap = tap
	m.gen.Store(gen)
	m.tick = cc.tick()
	m.epoch = time.Now()
	m.fifo = engine.NewFIFOClockLayout(cc.M, cc.N)
	m.due.Init(rt.SlotShift)
	m.wake = make(chan struct{}, 1)
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
}

// hello is the first frame of every connection m dials. It claims the
// current generation: the configured one on the first connection, whatever
// TResync assigned on re-dials, so a reconnect is not taken for a restart.
func (m *member) hello() wire.Frame {
	h := m.self
	h.Gen = m.gen.Load()
	return wire.Frame{Type: wire.THello, Ch: -1, Payload: h.Encode()}
}

// dialPeer builds a peer that dials addr, unstarted, whose connections open
// with m's hello.
func (m *member) dialPeer(addr string, tr transport, onFrame func(wire.Frame)) *peer {
	p := newPeer(&m.wg, onFrame)
	p.hello, p.tap = m.hello, m.tap
	p.dial = func() (net.Conn, error) { return tr.dial(addr) }
	return p
}

// joinHub builds the hub peer, unstarted. The member answers the hub's
// pings, adopts the generation a TResync assigns, queues TData and runs
// shutdown on TBye; every other hub frame goes to onControl, on the
// connection's reader.
func (m *member) joinHub(addr string, tr transport, onControl func(wire.Frame), shutdown func()) {
	m.hub = m.dialPeer(addr, tr, func(f wire.Frame) {
		switch f.Type {
		case wire.TData:
			m.queue(f)
		case wire.THeartbeat:
			if f.Hop == 0 { // hub ping: answer in kind
				m.hub.send(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1})
			}
		case wire.TResync:
			// Any replayed frames follow as ordinary TData.
			m.gen.Store(f.Seq)
		case wire.TBye:
			m.saidBye.Store(true)
			go shutdown() // not inline: shutdown waits for this very reader
		default:
			onControl(f)
		}
	})
}

// SaidBye reports whether the hub sent an orderly TBye — the signal a
// supervisor (cmd/mobilenode -supervise) uses to stop restarting the process.
func (m *member) SaidBye() bool { return m.saidBye.Load() }

// Gen reports the incarnation generation the hub admitted.
func (m *member) Gen() uint64 { return m.gen.Load() }

// Wait blocks until the process has shut down (Stop or a TBye from the hub).
func (m *member) Wait() { <-m.done }

// confirm reports (ch, seq) delivered to the hub.
func (m *member) confirm(ch int32, seq uint64) {
	m.hub.send(wire.Frame{Type: wire.TDelivered, Ch: ch, Seq: seq})
}

// carries reports whether this process sends on channel ch: a node on its
// station's wired row and downlinks, a client on its own uplink.
func (m *member) carries(ch int32) bool {
	if ch < 0 || int(ch) >= m.layout.Count() {
		return false
	}
	role, id := sendsOn(m.layout, int(ch))
	return role == m.self.Role && id == int(m.self.ID)
}

// queue takes a TData frame off the hub connection: it pushes the frame at
// its channel's FIFO clamp of arrival + latency × tick and wakes dueLoop,
// or drops and counts a frame on a channel this process does not send on.
// It never writes a socket, so no far end can stall the hub connection.
func (m *member) queue(f wire.Frame) {
	if !m.carries(f.Ch) {
		m.rejected.Add(1)
		return
	}
	now, lat := sim.Time(time.Since(m.epoch)), sim.Time(time.Duration(f.Latency)*m.tick)
	m.dueMu.Lock()
	at := m.fifo.Arrival(int(f.Ch), now, lat)
	m.due.Push(at, sim.Due[wire.Frame]{At: at, V: f})
	m.dueMu.Unlock()
	m.poke()
}

// poke wakes dueLoop; a wake already pending covers this one.
func (m *member) poke() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// dueLoop is the due queue's one goroutine: it sends each frame once due,
// at hop 1, across its last physical link, and otherwise sleeps until the
// front is due (on one timer, armed only for a front still ahead) or a frame
// arrives. It exits when stop closes.
func (m *member) dueLoop(send func(wire.Frame)) {
	defer m.wg.Done()
	for {
		m.dueMu.Lock()
		if d := m.due.Front(); d != nil {
			wait := time.Duration(d.At) - time.Since(m.epoch)
			if wait <= 0 {
				f := m.due.Pop().V
				m.dueMu.Unlock()
				f.Hop = 1
				send(f)
				continue
			}
			if m.timer == nil {
				m.timer = time.AfterFunc(wait, m.poke)
			} else {
				m.timer.Reset(wait)
			}
		}
		m.dueMu.Unlock()
		select {
		case <-m.stop:
			if m.timer != nil {
				m.timer.Stop()
			}
			return
		case <-m.wake:
		}
	}
}

// halt shuts the process down once: stop closes, release lets go of what
// the owner holds (listeners, links), the hub peer closes, and every
// goroutine is waited for.
func (m *member) halt(release func()) {
	m.stopOnce.Do(func() {
		close(m.stop)
		release()
		m.hub.close()
		m.wg.Wait()
		close(m.done)
	})
}

// wlink is one end of an MH's wireless link to its serving station — the
// node's end (station) or the client's. Each end holds the data frames it
// wrote until the far end echoes them. A frame the link cannot take — the
// write failed, or the link had already dropped — resolves to the hub from
// the end that holds it: send reports false and the caller confirms it.
// When the link drops, its end confirms everything still unechoed: each
// frame was transmitted into the cell whether or not anyone heard it, and
// the hub's window drops the duplicate if the far end confirmed it too.
//
// The protocol's one asymmetry is station: the node end confirms each
// uplink when it arrives and each downlink when its echo does; the client
// end echoes downlinks and takes uplink echoes, and leaves both
// confirmations to the node.
type wlink struct {
	conn    net.Conn
	station bool
	m       *member // whose hub connection carries the confirmations

	wmu sync.Mutex
	w   *wire.Writer

	mu      sync.Mutex
	pending map[pendKey]struct{} // written, not yet echoed; nil once dropped
	beatSeq uint64               // last ping sent
	beatAck uint64               // last ping answered
	missed  int
}

func newWlink(conn net.Conn, station bool, m *member) *wlink {
	w := wire.NewWriter(conn)
	w.Tap = m.tap
	return &wlink{conn: conn, station: station, m: m, w: w, pending: make(map[pendKey]struct{})}
}

// write writes f, and whatever answers are buffered before it, at once. A
// write error is terminal on every transport, so a failed write closes the
// connection and serve drops the link.
func (l *wlink) write(f wire.Frame) error {
	l.wmu.Lock()
	err := l.w.WriteFrame(f)
	l.wmu.Unlock()
	if err != nil {
		l.conn.Close()
	}
	return err
}

// send holds f and writes it. False means the link did not take f — it
// had dropped, or the write failed — and the caller resolves it.
func (l *wlink) send(f wire.Frame) bool {
	k := pendKey{f.Ch, f.Seq}
	l.mu.Lock()
	if l.pending == nil {
		l.mu.Unlock()
		return false
	}
	l.pending[k] = struct{}{}
	l.mu.Unlock()
	return l.write(f) == nil || !l.take(k)
}

// take removes k from the held set, reporting whether it was there (and so
// still owed a confirmation).
func (l *wlink) take(k pendKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.pending[k]
	delete(l.pending, k)
	return ok
}

// held reports how many written frames await their echo (for /status).
func (l *wlink) held() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// serve reads the link until it drops (a read or write fails). Data is
// echoed, an echo takes its held frame, a ping is answered and an answer
// recorded. Answers are buffered and flushed when idle: they ride one write
// while further input is already buffered, and never wait behind a read
// that can block.
func (l *wlink) serve(r *wire.Reader) {
	unflushed := false
	for {
		if unflushed && !r.FrameBuffered() {
			l.wmu.Lock()
			err := l.w.Flush()
			l.wmu.Unlock()
			if err != nil {
				break
			}
			unflushed = false
		}
		f, err := r.ReadFrame()
		if err != nil {
			break
		}
		answer := wire.Frame{Type: wire.TDelivered, Ch: f.Ch, Seq: f.Seq}
		switch {
		case f.Type == wire.TData:
			if l.station {
				l.m.confirm(f.Ch, f.Seq)
			}
		case f.Type == wire.TDelivered:
			if l.take(pendKey{f.Ch, f.Seq}) && l.station {
				l.m.confirm(f.Ch, f.Seq)
			}
			continue
		case f.Type == wire.THeartbeat && f.Hop == 0:
			answer = wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1}
		case f.Type == wire.THeartbeat:
			l.mu.Lock()
			if f.Seq > l.beatAck {
				l.beatAck, l.missed = f.Seq, 0
			}
			l.mu.Unlock()
			continue
		default:
			continue
		}
		l.wmu.Lock()
		err = l.w.BufferFrame(answer)
		l.wmu.Unlock()
		if err != nil {
			break
		}
		unflushed = true
	}
	l.conn.Close()
	l.mu.Lock()
	held := l.pending
	l.pending = nil
	l.mu.Unlock()
	for k := range held {
		l.m.confirm(k.ch, k.seq)
	}
}

// ping sends the next heartbeat, or severs the link once clientMissK beats
// in a row went unanswered (serve then drops it). It never waits on the
// link: a beat that finds a write in progress goes unsent, so unanswered,
// and one the socket cannot take within a beat closes the link.
func (l *wlink) ping(beat time.Duration) {
	l.mu.Lock()
	if l.beatSeq > l.beatAck {
		l.missed++
	} else {
		l.missed = 0
	}
	dead := l.missed >= clientMissK
	l.beatSeq++
	seq := l.beatSeq
	l.mu.Unlock()
	var err error
	if !dead && l.wmu.TryLock() {
		l.conn.SetWriteDeadline(time.Now().Add(beat))
		err = l.w.WriteFrame(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: seq})
		l.conn.SetWriteDeadline(time.Time{})
		l.wmu.Unlock()
	}
	if dead || err != nil {
		l.conn.Close()
	}
}

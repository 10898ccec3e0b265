package dgram

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"mobiledist/internal/obs"
)

// maxWindowBytes bounds unacked stream bytes in flight per direction;
// Write blocks (backpressure) when the window is full, exactly like a TCP
// send buffer.
const maxWindowBytes = 256 << 10

const (
	sideDial   = 0
	sideAccept = 1
)

// packetSink is where a session's sealed datagrams go: the connected
// socket on the dialing side, WriteToUDP through the shared listener
// socket on the accepting side.
type packetSink func(pkt []byte) error

// segment is one in-flight run of stream bytes awaiting acknowledgement.
type segment struct {
	off uint64
	// data aliases the body of the segment's first sealed packet, which
	// nothing writes again; a retransmit seals a copy into a new packet.
	data    []byte
	sentAt  time.Time
	retries int
	sacked  bool // selectively acked: held for window accounting, never re-sent
}

// oooSeg is received stream data parked ahead of the contiguous prefix.
type oooSeg struct {
	off  uint64
	data []byte
}

// Conn is one datagram session: a reliable, ordered, authenticated byte
// stream implementing net.Conn, so wire.Reader/Writer run over it
// unchanged. Write deadlines are not supported (writes only block on the
// in-flight window); read deadlines are.
type Conn struct {
	cfg Config
	// sealMAC authenticates outbound packets, openMAC inbound; they are
	// keyed once with the two direction keys of dirKeys, swapped between
	// the sides, so a reflected datagram never authenticates (see
	// packet.go). Both are used only under mu.
	sealMAC *sessionMAC
	openMAC *sessionMAC
	send    packetSink
	local   net.Addr
	remote  net.Addr

	// onClose detaches the session from its listener; nil on the dialing
	// side. Called without mu held.
	onClose func()
	// sock is the owned socket on the dialing side; nil on the accepting
	// side (the listener owns the shared socket).
	sock *net.UDPConn

	mu   sync.Mutex
	cond *sync.Cond

	sid         uint64
	side        int32
	established bool
	dialNonce   uint64 // distinguishes connect retransmits from fresh re-dials
	acceptBody  []byte // accept side: resent verbatim on connect retransmits
	accepted    chan struct{}

	err       error // terminal; Read/Write fail once set
	remoteEOF bool  // peer closed: drain readBuf, then io.EOF
	closed    bool

	nextSeq  uint64 // next packet sequence to stamp on a send
	replay   replayWindow
	lastRecv time.Time

	// send side: segments ordered by offset, all with off+len > cumAcked.
	nextOff  uint64
	cumAcked uint64
	segs     []segment

	// receive side. readBuf[readPos:] is not yet read.
	recvBase uint64
	ooo      []oooSeg
	oooBytes int // stream bytes parked in ooo
	readBuf  []byte
	readPos  int
	// ackOwed counts in-order stream bytes taken in since the last ack
	// went out; the retransmit tick acks them (see handleDataLocked).
	ackOwed int

	readDeadline time.Time

	stats Stats

	done      chan struct{}
	closeOnce sync.Once
}

func newConn(cfg Config, key []byte, side int32, send packetSink, local, remote net.Addr) *Conn {
	sealKey, openKey := dirKeys(key)
	if side == sideAccept {
		sealKey, openKey = openKey, sealKey
	}
	c := &Conn{
		cfg:      cfg,
		sealMAC:  newSessionMAC(sealKey),
		openMAC:  newSessionMAC(openKey),
		side:     side,
		send:     send,
		local:    local,
		remote:   remote,
		accepted: make(chan struct{}),
		lastRecv: time.Now(),
		done:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Conn) start() { go c.retransmitLoop() }

func (c *Conn) trace(kind obs.EventKind, b, cc int32) {
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(c.cfg.TraceNow(), kind, int32(c.sid&0x7fffffff), b, cc)
	}
}

// packetLocked starts the next outbound datagram: its header under the
// next packet sequence, in a buffer with room for a bodyLen-byte body and
// the tag (see newPacket).
func (c *Conn) packetLocked(ptype byte, bodyLen int) []byte {
	pkt := newPacket(header{Type: ptype, Session: c.sid, Seq: c.nextSeq}, bodyLen)
	c.nextSeq++
	return pkt
}

// sealLocked tags a datagram packetLocked started and counts it as sent;
// the caller ships it — bulk senders drop mu first, so socket writes never
// stall the listener's shared readLoop on this session's lock.
func (c *Conn) sealLocked(pkt []byte) []byte {
	pkt = c.sealMAC.seal(pkt)
	c.stats.PacketsSent++
	c.trace(obs.EvPacketSent, int32(pkt[3]), int32(len(pkt)))
	return pkt
}

// sendPacketLocked seals and ships one datagram. Send errors are
// deliberately dropped: UDP gives no delivery signal anyway, and loss
// recovery is the retransmit loop's job.
func (c *Conn) sendPacketLocked(ptype byte, body []byte) {
	_ = c.send(c.sealLocked(append(c.packetLocked(ptype, len(body)), body...)))
}

func (c *Conn) maxSegment() int { return c.cfg.MTU - headerSize - tagSize - dataOverhead }

// sealSegmentLocked seals stream bytes data at offset off as one data
// packet, straight from data.
func (c *Conn) sealSegmentLocked(off uint64, data []byte) []byte {
	pkt := binary.BigEndian.AppendUint64(c.packetLocked(ptData, dataOverhead+len(data)), off)
	return c.sealLocked(append(pkt, data...))
}

// newSegmentLocked seals data as the next run of the stream and records
// it for retransmission, its bytes held in the packet it returns.
func (c *Conn) newSegmentLocked(data []byte) []byte {
	pkt := c.sealSegmentLocked(c.nextOff, data)
	const at = headerSize + dataOverhead
	c.segs = append(c.segs, segment{
		off:    c.nextOff,
		data:   pkt[at : at+len(data) : at+len(data)],
		sentAt: time.Now(),
	})
	c.nextOff += uint64(len(data))
	return pkt
}

// Write packetizes p into MTU-sized segments (fragmenting frames larger
// than one datagram) and transmits them, blocking while the in-flight
// window is full. Segments are sealed under mu but shipped with it
// released: on the accept side every session shares the listener's socket
// and readLoop, so holding mu across a window's worth of socket writes
// would head-of-line-block demultiplexing for all sessions.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	c.mu.Lock()
	for len(p) > 0 {
		for c.err == nil && c.nextOff-c.cumAcked >= maxWindowBytes {
			c.cond.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return total, c.err
		}
		room := int(maxWindowBytes - (c.nextOff - c.cumAcked))
		chunk := p
		if len(chunk) > room {
			chunk = chunk[:room]
		}
		var pkts [][]byte
		for len(chunk) > 0 {
			m := min(len(chunk), c.maxSegment())
			pkts = append(pkts, c.newSegmentLocked(chunk[:m]))
			chunk = chunk[m:]
			p = p[m:]
			total += m
		}
		c.mu.Unlock()
		for _, pkt := range pkts {
			_ = c.send(pkt)
		}
		c.mu.Lock()
	}
	c.mu.Unlock()
	return total, nil
}

// Read returns in-order stream bytes, blocking until some arrive, the
// peer closes, the session dies, or the read deadline passes.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.readPos < len(c.readBuf) {
			n := copy(p, c.readBuf[c.readPos:])
			c.readPos += n
			if c.readPos == len(c.readBuf) {
				c.readBuf, c.readPos = c.readBuf[:0], 0
			}
			return n, nil
		}
		if c.remoteEOF {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		if !c.readDeadline.IsZero() && !time.Now().Before(c.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		c.cond.Wait()
	}
}

// handlePacket authenticates, replay-checks and dispatches one inbound
// datagram. pkt is only valid for the duration of the call.
func (c *Conn) handlePacket(pkt []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, body, err := c.openMAC.open(pkt)
	if err != nil {
		c.stats.BadPackets++
		return
	}
	if c.established && h.Session != c.sid {
		c.stats.BadPackets++
		return
	}
	if !c.established && h.Type != ptAccept && c.side == sideDial {
		// Nothing but the accept is meaningful before the handshake
		// lands; data racing ahead of a lost accept is recovered by the
		// sender's retransmits once we are established.
		c.stats.BadPackets++
		return
	}
	if !c.replay.admit(h.Seq) {
		c.stats.ReplayDrops++
		c.trace(obs.EvPacketReplayDropped, int32(h.Seq&0x7fffffff), 0)
		return
	}
	c.lastRecv = time.Now()
	c.stats.PacketsReceived++
	c.trace(obs.EvPacketRecv, int32(h.Type), int32(len(pkt)))
	switch h.Type {
	case ptAccept:
		c.handleAcceptLocked(body)
	case ptData:
		c.handleDataLocked(body)
	case ptAck:
		c.handleAckLocked(body)
	case ptClose:
		c.remoteEOF = true
		c.cond.Broadcast()
	}
}

func (c *Conn) handleAcceptLocked(body []byte) {
	if c.side != sideDial || c.established || len(body) < 16 {
		return // duplicate or stray accept
	}
	if binary.BigEndian.Uint64(body[8:16]) != c.dialNonce {
		c.stats.BadPackets++
		return // accept for some other dial attempt
	}
	c.sid = binary.BigEndian.Uint64(body[:8])
	c.established = true
	close(c.accepted)
}

func (c *Conn) handleDataLocked(body []byte) {
	if len(body) < dataOverhead {
		c.stats.BadPackets++
		return
	}
	off := binary.BigEndian.Uint64(body[:dataOverhead])
	// Delayed cumulative acks (RFC 5681 §4.2): in-order data only owes an
	// ack, which the retransmit tick sends; anything the sender must
	// hear about now, or two full segments owed, is acked at once.
	if c.insertDataLocked(off, body[dataOverhead:]) || c.ackOwed >= 2*c.maxSegment() {
		c.sendAckLocked()
	}
}

// insertDataLocked folds one segment into the receive state: extend the
// contiguous prefix, or park it out of order. data is copied (it aliases
// the socket buffer). It reports whether the segment calls for an
// immediate ack: out-of-order, stale, duplicate or empty data, or
// in-order data that fills part of a gap.
func (c *Conn) insertDataLocked(off uint64, data []byte) (ackNow bool) {
	end := off + uint64(len(data))
	if len(data) == 0 || end <= c.recvBase {
		return true // stale retransmit: re-ack so the sender stops
	}
	if end < off || end-c.recvBase > maxWindowBytes {
		// Past the window: a conforming sender's Write never lets
		// nextOff run more than maxWindowBytes ahead of our ack.
		c.stats.BadPackets++
		return false
	}
	if off < c.recvBase {
		data = data[c.recvBase-off:]
		off = c.recvBase
	}
	if off > c.recvBase {
		for _, s := range c.ooo {
			if s.off == off && uint64(len(s.data)) >= uint64(len(data)) {
				return true // duplicate of a parked segment
			}
		}
		if c.oooBytes+len(data) > maxWindowBytes {
			c.stats.BadPackets++
			return false
		}
		c.ooo = append(c.ooo, oooSeg{off: off, data: append([]byte(nil), data...)})
		c.oooBytes += len(data)
		return true
	}
	c.appendReadLocked(data)
	c.recvBase = end
	gap := len(c.ooo) > 0
	if gap {
		c.drainOOOLocked()
	}
	c.cond.Broadcast()
	return gap
}

// appendReadLocked queues in-order stream bytes for Read, reusing the
// front of readBuf that Read has consumed before growing it, and owes the
// peer an ack for them.
func (c *Conn) appendReadLocked(data []byte) {
	if c.readPos > 0 && len(c.readBuf)+len(data) > cap(c.readBuf) {
		n := copy(c.readBuf, c.readBuf[c.readPos:])
		c.readBuf, c.readPos = c.readBuf[:n], 0
	}
	c.readBuf = append(c.readBuf, data...)
	c.ackOwed += len(data)
}

func (c *Conn) drainOOOLocked() {
	for progressed := true; progressed; {
		progressed = false
		kept := c.ooo[:0]
		for _, s := range c.ooo {
			send := s.off + uint64(len(s.data))
			switch {
			case send <= c.recvBase:
				c.oooBytes -= len(s.data) // wholly behind: drop
			case s.off <= c.recvBase:
				c.appendReadLocked(s.data[c.recvBase-s.off:])
				c.oooBytes -= len(s.data)
				c.recvBase = send
				progressed = true
			default:
				kept = append(kept, s)
			}
		}
		clear(c.ooo[len(kept):])
		c.ooo = kept
	}
}

// mergeRanges collapses [start,end) ranges into a minimal sorted,
// non-overlapping set, truncated to at most max entries.
func mergeRanges(ranges [][2]uint64, max int) [][2]uint64 {
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	merged := ranges[:0]
	for _, r := range ranges {
		if n := len(merged); n > 0 && r[0] <= merged[n-1][1] {
			if r[1] > merged[n-1][1] {
				merged[n-1][1] = r[1]
			}
			continue
		}
		merged = append(merged, r)
	}
	if len(merged) > max {
		merged = merged[:max]
	}
	return merged
}

// sendAckLocked ships a cumulative ack plus up to maxAckRanges selective
// ranges covering the parked out-of-order data, settling any owed ack.
// The body is written straight into the packet.
func (c *Conn) sendAckLocked() {
	var ranges [][2]uint64
	if len(c.ooo) > 0 {
		ranges = make([][2]uint64, 0, len(c.ooo))
		for _, s := range c.ooo {
			ranges = append(ranges, [2]uint64{s.off, s.off + uint64(len(s.data))})
		}
		ranges = mergeRanges(ranges, maxAckRanges)
	}
	pkt := binary.BigEndian.AppendUint64(c.packetLocked(ptAck, 9+16*len(ranges)), c.recvBase)
	pkt = append(pkt, byte(len(ranges)))
	for _, r := range ranges {
		pkt = binary.BigEndian.AppendUint64(pkt, r[0])
		pkt = binary.BigEndian.AppendUint64(pkt, r[1])
	}
	c.ackOwed = 0
	_ = c.send(c.sealLocked(pkt))
}

// sackCovers reports whether one of an ack's selective ranges (sacks: a
// run of 16-byte start,end pairs) covers [off, end).
func sackCovers(sacks []byte, off, end uint64) bool {
	for ; len(sacks) >= 16; sacks = sacks[16:] {
		if off >= binary.BigEndian.Uint64(sacks) && end <= binary.BigEndian.Uint64(sacks[8:]) {
			return true
		}
	}
	return false
}

func (c *Conn) handleAckLocked(body []byte) {
	if len(body) < 9 {
		c.stats.BadPackets++
		return
	}
	cum := binary.BigEndian.Uint64(body[:8])
	n := int(body[8])
	if len(body) < 9+16*n {
		c.stats.BadPackets++
		return
	}
	sacks := body[9 : 9+16*n]
	if cum > c.nextOff {
		c.stats.BadPackets++
		return
	}
	if cum > c.cumAcked {
		c.cumAcked = cum
	}
	now := time.Now()
	kept := c.segs[:0]
	for _, s := range c.segs {
		end := s.off + uint64(len(s.data))
		resolved := end <= cum
		if !s.sacked && (resolved || sackCovers(sacks, s.off, end)) {
			if s.retries == 0 {
				// Karn's rule: only never-retransmitted segments yield a
				// clean RTT sample — and each at most once (a sacked
				// segment stays listed until the cumulative ack passes).
				c.trace(obs.EvPacketRTT, int32(now.Sub(s.sentAt)/time.Microsecond), 0)
			}
			s.sacked = true
		}
		if !resolved {
			kept = append(kept, s) // sacked or not, it holds window until acked
		}
	}
	clear(c.segs[len(kept):])
	c.segs = kept
	c.cond.Broadcast()
}

// handleConnectRetry answers a retransmitted connect for this session by
// re-sending the accept; it reports false when the packet is not a
// retransmission of this session's handshake (e.g. a fresh re-dial from
// the same source address under a new token).
func (c *Conn) handleConnectRetry(pkt []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, body, err := c.openMAC.open(pkt)
	if err != nil || h.Type != ptConnect || len(body) < 8 ||
		binary.BigEndian.Uint64(body[:8]) != c.dialNonce {
		return false
	}
	if c.replay.admit(h.Seq) {
		c.stats.PacketsReceived++
		c.lastRecv = time.Now()
	}
	c.sendPacketLocked(ptAccept, c.acceptBody)
	return true
}

func (c *Conn) rto(retries int) time.Duration {
	d := c.cfg.RTO << uint(retries)
	if max := c.cfg.RTO * backoffCap; d > max || d <= 0 {
		d = max
	}
	return d
}

// tick is the retransmit loop's period: a quarter of the RTO, at least
// 1 ms. It is also the longest a session holds an owed ack.
func (c *Conn) tick() time.Duration { return max(c.cfg.RTO/4, time.Millisecond) }

// retransmitLoop runs tickLocked every tick and ships what it re-seals.
func (c *Conn) retransmitLoop() {
	t := time.NewTicker(c.tick())
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		pkts, failed := c.tickLocked(time.Now())
		if failed != nil {
			c.failLocked(failed)
			c.mu.Unlock()
			c.teardown()
			return
		}
		c.mu.Unlock()
		// Ship retransmits with mu released (same reasoning as Write).
		for _, pkt := range pkts {
			_ = c.send(pkt)
		}
	}
}

// tickLocked is one retransmit tick at now: it reaps an idle session,
// sends an owed ack, and re-seals every timed-out segment (doubling
// backoff capped at 8x) for the caller to ship, giving up on a segment
// after MaxRetries. A segment times out one tick after its RTO: the peer
// may hold its ack that long (the max_ack_delay allowance of RFC 9002
// §6.2.1), and a stall must still outlast the whole RTO to draw a
// spurious retransmit.
func (c *Conn) tickLocked(now time.Time) (pkts [][]byte, failed error) {
	if now.Sub(c.lastRecv) > idleTimeout {
		return nil, fmt.Errorf("%w: idle for %v", ErrSessionDead, idleTimeout)
	}
	if c.ackOwed > 0 {
		c.sendAckLocked()
	}
	for i := range c.segs {
		s := &c.segs[i]
		if s.sacked || now.Sub(s.sentAt) < c.rto(s.retries)+c.tick() {
			continue
		}
		if s.retries >= c.cfg.MaxRetries {
			return nil, fmt.Errorf("%w: segment at %d unacked after %d retransmits",
				ErrSessionDead, s.off, s.retries)
		}
		s.retries++
		s.sentAt = now
		c.stats.Retransmits++
		c.trace(obs.EvPacketRetransmit, int32(s.retries), int32(len(s.data)))
		pkts = append(pkts, c.sealSegmentLocked(s.off, s.data))
	}
	return pkts, nil
}

// failLocked marks the session terminally broken and wakes every waiter.
func (c *Conn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
}

// teardown releases resources exactly once. Never called with mu held
// (onClose takes the listener lock).
func (c *Conn) teardown() {
	c.closeOnce.Do(func() {
		close(c.done)
		if c.onClose != nil {
			c.onClose()
		}
		if c.sock != nil {
			c.sock.Close()
		}
	})
}

// Close sends a best-effort close notification and tears the session
// down; pending Read/Write calls fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		// An owed ack goes first: the tick that would send it stops now.
		if c.ackOwed > 0 {
			c.sendAckLocked()
		}
		// Twice: best effort against loss; the peer's replay window
		// absorbs the duplicate.
		c.sendPacketLocked(ptClose, nil)
		c.sendPacketLocked(ptClose, nil)
		c.failLocked(ErrClosed)
	}
	c.mu.Unlock()
	c.teardown()
	return nil
}

// Stats returns a copy of the session's datagram counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.SessionID = c.sid
	return s
}

// SessionID returns the session identifier assigned at accept time.
func (c *Conn) SessionID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sid
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes block solely on
// the in-flight window).
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		time.AfterFunc(d, c.cond.Broadcast)
	}
	return nil
}

// SetWriteDeadline implements net.Conn; write deadlines are not
// supported and are silently ignored.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// readLoop pumps the dialing side's owned socket into handlePacket.
func (c *Conn) readLoop() {
	buf := make([]byte, maxPacket)
	for {
		n, err := c.sock.Read(buf)
		if err != nil {
			select {
			case <-c.done:
			default:
				c.mu.Lock()
				c.failLocked(fmt.Errorf("dgram: socket read: %w", err))
				c.mu.Unlock()
				c.teardown()
			}
			return
		}
		c.handlePacket(buf[:n])
	}
}

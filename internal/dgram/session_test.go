package dgram

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// Socket-free sessions: a Conn driven straight through handlePacket, its
// outbound datagrams landing in a capture, its peer played by the test
// with the peer's two session MACs.

const testSID = 99

// sealPacket seals one datagram with a freshly keyed crypto/hmac MAC: the
// reference a session's reused MACs must match byte for byte.
func sealPacket(key []byte, h header, body []byte) []byte {
	pkt := append(appendHeader(nil, h), body...)
	mac := hmac.New(sha256.New, key)
	mac.Write(pkt)
	return append(pkt, mac.Sum(nil)[:tagSize]...)
}

// sealBody seals one datagram, header + body + tag, under m.
func (m *sessionMAC) sealBody(h header, body []byte) []byte {
	return m.seal(append(newPacket(h, len(body)), body...))
}

// capture is a packetSink that keeps a copy of every datagram sent.
type capture struct{ pkts [][]byte }

func (s *capture) send(pkt []byte) error {
	s.pkts = append(s.pkts, append([]byte(nil), pkt...))
	return nil
}

// take returns the datagrams sent since the last take.
func (s *capture) take() [][]byte {
	p := s.pkts
	s.pkts = nil
	return p
}

// testPeer is the far end of a socket-free session.
type testPeer struct {
	seal, open *sessionMAC
	seq        uint64
}

// socketless returns an established accept-side session whose datagrams
// go to send, and the dialing peer that talks to it.
func socketless(send packetSink) (*Conn, *testPeer) {
	key := []byte("socketless-session-key")
	c := newConn(Config{}.withDefaults(), key, sideAccept, send, nil, nil)
	c.sid = testSID
	c.established = true
	dial, accept := dirKeys(key)
	return c, &testPeer{seal: newSessionMAC(dial), open: newSessionMAC(accept)}
}

// packet seals one datagram from the peer under its next sequence.
func (p *testPeer) packet(ptype byte, body []byte) []byte {
	p.seq++
	return p.seal.sealBody(header{Type: ptype, Session: testSID, Seq: p.seq}, body)
}

// data seals stream bytes n bytes long at offset off.
func (p *testPeer) data(off uint64, n int) []byte {
	body := binary.BigEndian.AppendUint64(nil, off)
	return p.packet(ptData, append(body, bytes.Repeat([]byte{'d'}, n)...))
}

// ack is one decoded ack body.
type ack struct {
	cum    uint64
	ranges [][2]uint64
}

// decode opens the session's datagrams as the peer, returning their
// types and the acks among them.
func (p *testPeer) decode(t *testing.T, pkts [][]byte) (types []byte, acks []ack) {
	t.Helper()
	for _, pkt := range pkts {
		h, body, err := p.open.open(pkt)
		if err != nil {
			t.Fatalf("peer cannot open the session's packet: %v", err)
		}
		types = append(types, h.Type)
		if h.Type != ptAck {
			continue
		}
		a := ack{cum: binary.BigEndian.Uint64(body)}
		for i := 0; i < int(body[8]); i++ {
			a.ranges = append(a.ranges, [2]uint64{
				binary.BigEndian.Uint64(body[9+16*i:]), binary.BigEndian.Uint64(body[9+16*i+8:])})
		}
		acks = append(acks, a)
	}
	return types, acks
}

// TestSessionMACMatchesOneOff pins keyed-MAC reuse: a session's MAC,
// reset between packets, seals every packet of a mixed run byte for byte
// as the freshly keyed sealPacket does, and its peer opens them all.
func TestSessionMACMatchesOneOff(t *testing.T) {
	c, peer := socketless(func([]byte) error { return nil })
	_, acceptKey := dirKeys([]byte("socketless-session-key"))
	types := []byte{ptAccept, ptData, ptAck, ptClose, ptData, ptData, ptAck}
	for i := 0; i < 60; i++ {
		h := header{Type: types[i%len(types)], Session: testSID, Seq: uint64(i)}
		body := bytes.Repeat([]byte{byte(i)}, (i*37)%1200)
		got := c.sealMAC.sealBody(h, body)
		if want := sealPacket(acceptKey, h, body); !bytes.Equal(got, want) {
			t.Fatalf("packet %d: reused MAC sealed %x, one-off MAC %x", i, got, want)
		}
		gh, gbody, err := peer.open.open(got)
		if err != nil || gh != h || !bytes.Equal(gbody, body) {
			t.Fatalf("packet %d: peer open = %+v, %v", i, gh, err)
		}
		// A session never authenticates what it sealed itself.
		if _, _, err := c.openMAC.open(got); !errors.Is(err, errPacketMAC) {
			t.Fatalf("packet %d: own open accepted own packet: %v", i, err)
		}
	}
}

// TestAckPolicy drives each rule of the delayed-ack policy through
// handlePacket, with no socket.
func TestAckPolicy(t *testing.T) {
	sink := &capture{}
	c, peer := socketless(sink.send)
	tick := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if pkts, err := c.tickLocked(time.Now()); err != nil || len(pkts) != 0 {
			t.Fatalf("tick: %d retransmits, %v", len(pkts), err)
		}
	}
	expect := func(what string, want ...ack) {
		t.Helper()
		types, acks := peer.decode(t, sink.take())
		if len(types) != len(want) || len(acks) != len(want) {
			t.Fatalf("%s: sent %v, want %d acks", what, types, len(want))
		}
		for i := range want {
			if acks[i].cum != want[i].cum || len(acks[i].ranges) != len(want[i].ranges) {
				t.Fatalf("%s: ack %+v, want %+v", what, acks[i], want[i])
			}
			for j := range want[i].ranges {
				if acks[i].ranges[j] != want[i].ranges[j] {
					t.Fatalf("%s: ack %+v, want %+v", what, acks[i], want[i])
				}
			}
		}
	}

	// In-order small data only owes an ack; the tick sends it, once.
	c.handlePacket(peer.data(0, 100))
	c.handlePacket(peer.data(100, 100))
	expect("in-order data")
	tick()
	expect("tick", ack{cum: 200})
	tick()
	expect("idle tick")

	// Two full segments owed: the second draws an ack at once.
	full := c.maxSegment()
	c.handlePacket(peer.data(200, full))
	expect("one full segment")
	c.handlePacket(peer.data(uint64(200+full), full))
	base := uint64(200 + 2*full)
	expect("two full segments", ack{cum: base})

	// A gap: acked at once, with the parked range as a SACK.
	c.handlePacket(peer.data(base+50, 30))
	expect("gap", ack{cum: base, ranges: [][2]uint64{{base + 50, base + 80}}})
	// Filling it is acked at once too, and drains the parked bytes.
	c.handlePacket(peer.data(base, 50))
	expect("gap fill", ack{cum: base + 80})

	// A stale retransmit: re-acked at once.
	c.handlePacket(peer.data(0, 100))
	expect("stale retransmit", ack{cum: base + 80})

	// Close sends the owed ack before its close notifications.
	c.handlePacket(peer.data(base+80, 20))
	expect("in-order data before close")
	c.Close()
	types, acks := peer.decode(t, sink.take())
	if len(types) != 3 || types[0] != ptAck || types[1] != ptClose || types[2] != ptClose ||
		acks[0].cum != base+100 {
		t.Fatalf("close sent %v (acks %+v), want ack at %d then two closes", types, acks, base+100)
	}
}

// TestRetransmitAllowsAckDelay: a segment is re-sent one tick after its
// RTO, not at it, since the peer may hold the ack for that tick.
func TestRetransmitAllowsAckDelay(t *testing.T) {
	c, _ := socketless(func([]byte) error { return nil })
	if _, err := c.Write([]byte("owed")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sent := c.segs[0].sentAt
	if pkts, _ := c.tickLocked(sent.Add(c.cfg.RTO + c.tick() - time.Microsecond)); len(pkts) != 0 {
		t.Fatalf("re-sent before RTO + tick")
	}
	if pkts, _ := c.tickLocked(sent.Add(c.cfg.RTO + c.tick())); len(pkts) != 1 {
		t.Fatalf("not re-sent at RTO + tick: %d packets", len(pkts))
	}
}

// TestConcurrentWritesStayContiguous: like a TCP socket, a session gives
// each Write call one contiguous run of the stream, however many segments
// it takes, so writers sharing a session never interleave their frames.
func TestConcurrentWritesStayContiguous(t *testing.T) {
	var mu sync.Mutex
	sink := &capture{}
	c, peer := socketless(func(pkt []byte) error {
		mu.Lock()
		defer mu.Unlock()
		return sink.send(pkt)
	})
	const block, writes = 3 * 1200, 30 // within one window: nothing acks
	var wg sync.WaitGroup
	for _, b := range []byte{'a', 'b'} {
		wg.Add(1)
		go func(b byte) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if _, err := c.Write(bytes.Repeat([]byte{b}, block)); err != nil {
					t.Error(err)
					return
				}
			}
		}(b)
	}
	wg.Wait()
	stream := map[uint64][]byte{} // offset -> segment bytes
	for _, pkt := range sink.take() {
		_, body, err := peer.open.open(pkt)
		if err != nil {
			t.Fatal(err)
		}
		stream[binary.BigEndian.Uint64(body)] = body[dataOverhead:]
	}
	var all []byte
	for off := uint64(0); ; {
		seg, ok := stream[off]
		if !ok {
			break
		}
		all = append(all, seg...)
		off += uint64(len(seg))
	}
	if len(all) != 2*block*writes {
		t.Fatalf("reassembled %d bytes, want %d", len(all), 2*block*writes)
	}
	for i := 0; i < len(all); i += block {
		if run := all[i : i+block]; !bytes.Equal(run, bytes.Repeat(run[:1], block)) {
			t.Fatalf("write at stream offset %d interleaved with another", i)
		}
	}
}

// TestOutOfOrderParkingBounded: an authenticated segment beyond what a
// conforming sender's window allows, or one that would park more than a
// window of bytes, is dropped and counted, not parked.
func TestOutOfOrderParkingBounded(t *testing.T) {
	sink := &capture{}
	c, peer := socketless(sink.send)
	for _, off := range []uint64{maxWindowBytes, 1 << 40, ^uint64(0) - 4} {
		c.handlePacket(peer.data(off, 10))
	}
	if s := c.Stats(); s.BadPackets != 3 || len(c.ooo) != 0 || len(sink.take()) != 0 {
		t.Fatalf("segments past the window: bad %d, parked %d", s.BadPackets, len(c.ooo))
	}
	// Overlapping segments inside the window, each parkable on its own,
	// may not together park more than a window's worth.
	const n = 60000
	for off := uint64(1); off <= 5; off++ {
		c.handlePacket(peer.data(off, n))
	}
	if s := c.Stats(); s.BadPackets != 4 || len(c.ooo) != 4 || c.oooBytes != 4*n {
		t.Fatalf("overlapping parks: bad %d, parked %d segments / %d bytes", s.BadPackets, len(c.ooo), c.oooBytes)
	}
	// The stream still completes from the front, and parking drains.
	c.handlePacket(peer.data(0, 1))
	if c.recvBase != 4+n || len(c.ooo) != 0 || c.oooBytes != 0 {
		t.Fatalf("after fill: recvBase %d, parked %d / %d bytes", c.recvBase, len(c.ooo), c.oooBytes)
	}
}

// TestSessionAllocs pins the per-packet allocation budget: receiving
// in-order data or an ack allocates nothing, sending an ack only its
// packet, a one-segment write its packet and the batch it ships.
func TestSessionAllocs(t *testing.T) {
	c, peer := socketless(func([]byte) error { return nil })
	const runs = 100
	// Small in-order segments: together less than the two full segments
	// that would draw an immediate ack.
	pkts := make([][]byte, runs+1)
	for i := range pkts {
		pkts[i] = peer.data(uint64(8*i), 8)
	}
	buf := make([]byte, 64)
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		c.handlePacket(pkts[i])
		i++
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("receiving in-order data allocates %v per packet, want 0", n)
	}

	// Acks for data the session sent (the first run warms the MACs).
	if _, err := c.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	acks := make([][]byte, runs+1)
	for i := range acks {
		acks[i] = peer.packet(ptAck, append(binary.BigEndian.AppendUint64(nil, 10), 0))
	}
	i = 0
	if n := testing.AllocsPerRun(runs, func() {
		c.handlePacket(acks[i])
		i++
	}); n != 0 {
		t.Errorf("receiving an ack allocates %v, want 0", n)
	}

	if n := testing.AllocsPerRun(runs, func() {
		c.mu.Lock()
		c.sendAckLocked()
		c.mu.Unlock()
	}); n > 1 {
		t.Errorf("sending an ack allocates %v, want at most 1", n)
	}

	msg := make([]byte, 100)
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("sending one data segment allocates %v, want at most 2", n)
	}
}

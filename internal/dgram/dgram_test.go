package dgram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"

	"mobiledist/internal/obs"
	"mobiledist/internal/wire"
)

func testSecret() []byte { return []byte("test-cluster-secret") }

// mintFor mints a short-lived token bound to addrs.
func mintFor(t *testing.T, ttl time.Duration, addrs ...string) (token, key []byte) {
	t.Helper()
	token, key, err := Mint(testSecret(), TokenInfo{
		Role:   byte(wire.RoleMSS),
		ID:     7,
		Gen:    1,
		Expiry: time.Now().Add(ttl),
		Addrs:  addrs,
	})
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	return token, key
}

// fastCfg keeps retransmit timing snappy for tests.
func fastCfg() Config {
	return Config{RTO: 5 * time.Millisecond, MaxRetries: 20}
}

func TestPacketSealOpen(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	h := header{Type: ptData, Session: 0xDEADBEEF01234567, Seq: 42}
	body := []byte("hello over a datagram")
	pkt := sealPacket(key, h, body)

	got, gotBody, err := openPacket(key, pkt)
	if err != nil {
		t.Fatalf("openPacket: %v", err)
	}
	if got != h || !bytes.Equal(gotBody, body) {
		t.Fatalf("roundtrip mismatch: %+v %q", got, gotBody)
	}
	// Re-encoding the decoded header is byte-identical.
	if again := appendHeader(nil, got); !bytes.Equal(again, pkt[:headerSize]) {
		t.Fatalf("header re-encode differs: %x vs %x", again, pkt[:headerSize])
	}
	// Any flipped bit fails authentication.
	for _, i := range []int{0, 3, 8, 15, headerSize + 2, len(pkt) - 1} {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0x40
		if _, _, err := openPacket(key, bad); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	// A different key fails authentication.
	if _, _, err := openPacket([]byte("another-key"), pkt); !errors.Is(err, errPacketMAC) {
		t.Fatalf("wrong key: got %v, want MAC failure", err)
	}
}

func TestReplayWindow(t *testing.T) {
	var w replayWindow
	for seq := uint64(0); seq < 10; seq++ {
		if !w.admit(seq) {
			t.Fatalf("fresh seq %d rejected", seq)
		}
		if w.admit(seq) {
			t.Fatalf("duplicate seq %d admitted", seq)
		}
	}
	// Out-of-order within the window is fine, once.
	if !w.admit(300) || !w.admit(298) {
		t.Fatal("in-window out-of-order rejected")
	}
	if w.admit(298) {
		t.Fatal("replayed 298 admitted")
	}
	if !w.admit(299) {
		t.Fatal("in-window gap fill rejected")
	}
	// Out-of-window (too old) sequences are rejected without state change.
	before := w
	if w.admit(300 - replayWindowSize) {
		t.Fatal("out-of-window seq admitted")
	}
	if w.admit(2) {
		t.Fatal("ancient seq admitted")
	}
	if w != before {
		t.Fatalf("rejected sequences mutated the window: %+v vs %+v", w, before)
	}
	// A large jump clears history but keeps rejecting the past.
	if !w.admit(300 + 3*replayWindowSize) {
		t.Fatal("far-future seq rejected")
	}
	if w.admit(300) {
		t.Fatal("stale seq admitted after jump")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	info := TokenInfo{
		Role:   byte(wire.RoleMH),
		ID:     -3,
		Gen:    9,
		Expiry: time.Now().Add(time.Hour).Truncate(time.Microsecond),
		Addrs:  []string{"127.0.0.1:4242", "127.0.0.1:4343"},
	}
	token, key, err := Mint(testSecret(), info)
	if err != nil {
		t.Fatalf("Mint: %v", err)
	}
	got, gotKey, err := Validate(testSecret(), token, "127.0.0.1:4343", time.Now())
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got.Role != info.Role || got.ID != info.ID || got.Gen != info.Gen ||
		!got.Expiry.Equal(info.Expiry) || len(got.Addrs) != 2 {
		t.Fatalf("info mismatch: %+v vs %+v", got, info)
	}
	if !bytes.Equal(gotKey, key) {
		t.Fatal("validator derived a different session key than the minter")
	}
	if sk, err := SessionKey(testSecret(), token); err != nil || !bytes.Equal(sk, key) {
		t.Fatalf("SessionKey mismatch: %v", err)
	}

	// Security edges.
	if _, _, err := Validate(testSecret(), token, "10.0.0.1:1", time.Now()); !errors.Is(err, ErrTokenAddr) {
		t.Fatalf("wrong address: got %v, want ErrTokenAddr", err)
	}
	if _, _, err := Validate(testSecret(), token, "127.0.0.1:4242", info.Expiry.Add(time.Second)); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("expired: got %v, want ErrTokenExpired", err)
	}
	if _, _, err := Validate([]byte("other-secret"), token, "127.0.0.1:4242", time.Now()); !errors.Is(err, ErrTokenMAC) {
		t.Fatalf("wrong secret: got %v, want ErrTokenMAC", err)
	}
	bad := append([]byte(nil), token...)
	bad[2] ^= 1
	if _, _, err := Validate(testSecret(), bad, "127.0.0.1:4242", time.Now()); !errors.Is(err, ErrTokenMAC) {
		t.Fatalf("tampered: got %v, want ErrTokenMAC", err)
	}
}

// startPair establishes a listener and one dialed session against it.
func startPair(t *testing.T, cfg Config) (*Listener, *Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", testSecret(), cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	token, key := mintFor(t, time.Minute, l.Addr().String())
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err := Dial(l.Addr().String(), token, key, cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	r := <-ch
	if r.err != nil {
		t.Fatalf("Accept: %v", r.err)
	}
	server := r.c.(*Conn)
	return l, client, server
}

func TestSessionEcho(t *testing.T) {
	_, client, server := startPair(t, fastCfg())

	msg := []byte("the paper assumes a datagram medium")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("client write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("server read %q", got)
	}
	if _, err := server.Write(got); err != nil {
		t.Fatalf("server write: %v", err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(client, back); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatalf("client read %q", back)
	}
	if client.SessionID() == 0 || client.SessionID() != server.SessionID() {
		t.Fatalf("session ids: client %d server %d", client.SessionID(), server.SessionID())
	}
	cs, ss := client.Stats(), server.Stats()
	if cs.PacketsSent == 0 || cs.PacketsReceived == 0 || ss.PacketsSent == 0 || ss.PacketsReceived == 0 {
		t.Fatalf("missing packet counters: client %+v server %+v", cs, ss)
	}
}

// TestSessionFragmentation pushes a payload many times the MTU through a
// deliberately tiny datagram budget, so every frame fragments.
func TestSessionFragmentation(t *testing.T) {
	cfg := fastCfg()
	cfg.MTU = 96 // ~51 stream bytes per datagram
	_, client, server := startPair(t, cfg)

	payload := make([]byte, 32*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		client.Write(payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmented payload reassembled incorrectly")
	}
}

func TestWireFramesOverSession(t *testing.T) {
	_, client, server := startPair(t, fastCfg())

	w := wire.NewWriter(client)
	r := wire.NewReader(server)
	want := []wire.Frame{
		{Type: wire.THello, Ch: -1, Payload: wire.Hello{Role: wire.RoleMSS, ID: 2, M: 3, N: 6, Gen: 1}.Encode()},
		{Type: wire.TData, Ch: 5, Seq: 9, Hop: 1, Latency: 4, Payload: wire.Envelope{Kind: 2, A: 1, B: 2}.Encode()},
		{Type: wire.THeartbeat, Ch: -1, Seq: 77},
	}
	go func() {
		for _, f := range want {
			w.WriteFrame(f)
		}
	}()
	for i, wf := range want {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != wf.Type || got.Ch != wf.Ch || got.Seq != wf.Seq || !bytes.Equal(got.Payload, wf.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, wf)
		}
	}
}

// lossyRelay is a deterministic in-test UDP relay: it drops every dropNth
// client->server datagram and duplicates every dupNth one.
type lossyRelay struct {
	pc     *net.UDPConn
	target *net.UDPAddr
	mu     sync.Mutex
	up     *net.UDPConn
	client *net.UDPAddr
	done   chan struct{}
}

func startLossyRelay(t *testing.T, target string, dropNth, dupNth int) *lossyRelay {
	t.Helper()
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rl := &lossyRelay{pc: pc, target: taddr, done: make(chan struct{})}
	t.Cleanup(rl.stop)
	go func() {
		buf := make([]byte, maxPacket)
		n := 0
		for {
			sz, from, err := pc.ReadFromUDP(buf)
			if err != nil {
				return
			}
			rl.mu.Lock()
			if rl.up == nil {
				rl.client = from
				up, err := net.DialUDP("udp", nil, taddr)
				if err != nil {
					rl.mu.Unlock()
					return
				}
				rl.up = up
				go func() {
					dbuf := make([]byte, maxPacket)
					for {
						sz, err := up.Read(dbuf)
						if err != nil {
							return
						}
						pc.WriteToUDP(dbuf[:sz], rl.client)
					}
				}()
			}
			up := rl.up
			rl.mu.Unlock()
			n++
			if dropNth > 0 && n%dropNth == 0 {
				continue
			}
			up.Write(buf[:sz])
			if dupNth > 0 && n%dupNth == 0 {
				up.Write(buf[:sz])
			}
		}
	}()
	return rl
}

func (rl *lossyRelay) addr() string { return rl.pc.LocalAddr().String() }

func (rl *lossyRelay) stop() {
	rl.pc.Close()
	rl.mu.Lock()
	if rl.up != nil {
		rl.up.Close()
	}
	rl.mu.Unlock()
}

// TestSessionLossRecovery runs the stream through a relay that drops and
// duplicates datagrams: the stream must still arrive intact, with the
// retransmit and replay-drop counters proving both mechanisms fired.
func TestSessionLossRecovery(t *testing.T) {
	tr := obs.NewTracer(0).WithMetrics(obs.NewMetrics())
	cfg := fastCfg()
	cfg.MTU = 256
	// RTO comfortably above the loopback RTT even under the race
	// detector, so Karn's rule leaves some clean samples.
	cfg.RTO = 30 * time.Millisecond
	cfg.Trace = tr
	l, err := Listen("127.0.0.1:0", testSecret(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	relay := startLossyRelay(t, l.Addr().String(), 5, 3)
	l.SetAdvertise(relay.addr())

	token, key := mintFor(t, time.Minute, relay.addr())
	acceptCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	client, err := Dial(relay.addr(), token, key, cfg)
	if err != nil {
		t.Fatalf("Dial through relay: %v", err)
	}
	defer client.Close()
	server := (<-acceptCh).(*Conn)

	payload := make([]byte, 24*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	go client.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read through loss: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted by loss recovery")
	}
	cs, ss := client.Stats(), server.Stats()
	if cs.Retransmits == 0 {
		t.Errorf("no retransmits despite 1-in-5 drop: %+v", cs)
	}
	if ss.ReplayDrops == 0 {
		t.Errorf("no replay drops despite 1-in-3 duplication: %+v", ss)
	}
	snap := tr.MetricsSnapshot()
	if snap.Counts[obs.EvSessionEstablished.String()] == 0 ||
		snap.Counts[obs.EvPacketReplayDropped.String()] == 0 ||
		snap.Counts[obs.EvPacketRetransmit.String()] == 0 {
		t.Errorf("missing obs counters: %v", snap.Counts)
	}
	if snap.Histograms["dgram_rtt_us"].Count() == 0 {
		t.Error("no RTT samples recorded")
	}
}

// TestSessionRedialSameToken proves a client can tear a session down and
// re-establish with the same minted token (same generation) while it is
// unexpired — the out-of-band bootstrap flow.
func TestSessionRedialSameToken(t *testing.T) {
	cfg := fastCfg()
	l, err := Listen("127.0.0.1:0", testSecret(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	token, key := mintFor(t, time.Minute, l.Addr().String())

	for round := 0; round < 2; round++ {
		acceptCh := make(chan net.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				acceptCh <- c
			}
		}()
		client, err := Dial(l.Addr().String(), token, key, cfg)
		if err != nil {
			t.Fatalf("round %d dial: %v", round, err)
		}
		server := (<-acceptCh).(*Conn)
		msg := []byte("round trip")
		if _, err := client.Write(msg); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		client.Close()
		server.Close()
	}
}

// TestDialRefused covers the listener-side security edges end to end:
// expired tokens and tokens bound to another server's address never
// establish a session.
func TestDialRefused(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxRetries = 3
	l, err := Listen("127.0.0.1:0", testSecret(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	expired, expiredKey := mintFor(t, -time.Second, l.Addr().String())
	if _, err := Dial(l.Addr().String(), expired, expiredKey, cfg); err == nil {
		t.Fatal("dial with expired token succeeded")
	}
	other, otherKey := mintFor(t, time.Minute, "127.0.0.1:1")
	if _, err := Dial(l.Addr().String(), other, otherKey, cfg); err == nil {
		t.Fatal("dial with token bound to another address succeeded")
	}
	if _, rejected := l.Stats(); rejected < 2 {
		t.Fatalf("tokensRejected = %d, want >= 2", rejected)
	}
	if len(l.Sessions()) != 0 {
		t.Fatal("refused dials left sessions behind")
	}
}

// TestDialClosedPortFailsFast: a connect to a closed loopback port draws an
// ICMP refusal that ends the session's read loop, and Dial returns that
// error at once instead of retransmitting the connect until MaxRetries
// runs out (about 1.5 s at the default RTO).
func TestDialClosedPortFailsFast(t *testing.T) {
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()
	token, key := mintFor(t, time.Minute, addr)
	start := time.Now()
	if _, err := Dial(addr, token, key, Config{}); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("dial to a closed port failed after %v, want < 100ms", took)
	}
}

// TestReflectedPacketRejected proves direction-key separation: a host's
// own sealed datagrams bounced back at it by an on-path attacker fail
// authentication, and so can never enter the replay window, corrupt the
// receive stream, or falsely advance the ack state.
func TestReflectedPacketRejected(t *testing.T) {
	cfg := fastCfg()
	// An RTO far above the loopback RTT: a retransmit of "reflect me"
	// still in flight after the wait below would land mid-check.
	cfg.RTO = 200 * time.Millisecond
	_, client, server := startPair(t, cfg)

	msg := []byte("reflect me")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	// The server acks "reflect me" on its retransmit tick. Until that ack
	// lands, it can arrive between a snapshot below and its check, and
	// count as a packet the client received.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		client.mu.Lock()
		acked := client.cumAcked == client.nextOff
		client.mu.Unlock()
		if acked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never acked the client's data")
		}
	}

	for _, victim := range []*Conn{client, server} {
		victim.mu.Lock()
		// A data packet and an ack the victim itself might have sent,
		// with sequences ahead of its own counter (fresh in any window).
		data := make([]byte, dataOverhead+4)
		binary.BigEndian.PutUint64(data, victim.nextOff)
		ack := make([]byte, 9)
		binary.BigEndian.PutUint64(ack, victim.recvBase)
		pkts := [][]byte{
			victim.sealMAC.sealBody(header{Type: ptData, Session: victim.sid, Seq: victim.nextSeq + 50}, data),
			victim.sealMAC.sealBody(header{Type: ptAck, Session: victim.sid, Seq: victim.nextSeq + 51}, ack),
		}
		replayBefore := victim.replay
		cumBefore, baseBefore := victim.cumAcked, victim.recvBase
		victim.mu.Unlock()

		before := victim.Stats()
		for _, pkt := range pkts {
			victim.handlePacket(pkt)
		}
		after := victim.Stats()
		if after.BadPackets != before.BadPackets+2 {
			t.Fatalf("reflected packets not rejected: bad %d -> %d", before.BadPackets, after.BadPackets)
		}
		if after.PacketsReceived != before.PacketsReceived || after.ReplayDrops != before.ReplayDrops {
			t.Fatalf("reflected packets counted as received: %+v vs %+v", before, after)
		}
		victim.mu.Lock()
		mutated := victim.replay != replayBefore || victim.cumAcked != cumBefore || victim.recvBase != baseBefore
		victim.mu.Unlock()
		if mutated {
			t.Fatal("reflected packets mutated session state")
		}
	}
}

// TestConnectReplayDropped proves a captured ptConnect datagram replayed
// within its token TTL neither mints a zombie session from a spoofed
// source address nor displaces the live session it was captured from.
func TestConnectReplayDropped(t *testing.T) {
	cfg := fastCfg()
	l, err := Listen("127.0.0.1:0", testSecret(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	token, key := mintFor(t, time.Minute, l.Addr().String())

	acceptCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	client, err := Dial(l.Addr().String(), token, key, cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	server := (<-acceptCh).(*Conn)

	// Reconstruct the connect datagram the client sent — dial nonce plus
	// token, sealed under the dial-direction key — exactly the bytes an
	// on-path attacker captures off the wire.
	client.mu.Lock()
	dialNonce := client.dialNonce
	client.mu.Unlock()
	body := make([]byte, 8+len(token))
	binary.BigEndian.PutUint64(body, dialNonce)
	copy(body[8:], token)
	dialKey, _ := dirKeys(key)
	captured := sealPacket(dialKey, header{Type: ptConnect, Session: 0, Seq: 0}, body)

	badBefore, _ := l.Stats()
	// Replay from a spoofed, unrelated source address: no session minted.
	l.handleConnect(captured, netip.MustParseAddrPort("127.0.0.1:1"), nil)
	if n := len(l.Sessions()); n != 1 {
		t.Fatalf("replayed connect minted a session: %d live", n)
	}
	// Replay from the client's own (spoofable) source address: the live
	// session must not be displaced.
	l.handleConnect(captured, server.RemoteAddr().(*net.UDPAddr).AddrPort(), server)
	if badAfter, _ := l.Stats(); badAfter != badBefore+2 {
		t.Fatalf("replayed connects not counted: %d -> %d", badBefore, badAfter)
	}
	msg := []byte("still alive")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("write after replay: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read after replay: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted after replay: %q", got)
	}
}

// TestMergeAckRanges covers the bridging case the single-pass merge got
// wrong: a later range joining two earlier ones must collapse all three.
func TestMergeAckRanges(t *testing.T) {
	got := mergeRanges([][2]uint64{{30, 40}, {10, 20}, {20, 30}, {50, 60}}, maxAckRanges)
	want := [][2]uint64{{10, 40}, {50, 60}}
	if len(got) != len(want) {
		t.Fatalf("mergeRanges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeRanges = %v, want %v", got, want)
		}
	}
	// Truncation keeps the lowest ranges, and output stays sorted and
	// non-overlapping.
	got = mergeRanges([][2]uint64{{50, 60}, {10, 20}, {30, 40}}, 2)
	if len(got) != 2 || got[0] != [2]uint64{10, 20} || got[1] != [2]uint64{30, 40} {
		t.Fatalf("truncated mergeRanges = %v", got)
	}
}

func TestReadDeadline(t *testing.T) {
	_, client, _ := startPair(t, fastCfg())
	client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := client.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline: got %v, want ErrDeadlineExceeded", err)
	}
}

package netrt

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mobiledist/internal/wire"
)

// The wireless link's discipline, pinned at both of its ends over raw
// sockets: a relay node with a raw client in its cell, and a client with a
// fake station. A fake hub stands where either dials its hub and records
// every frame that reaches it.

// Channel ids of the M=1, N=1 network these tests run on.
const (
	chLoneDown = 1 // mss0 → mh0
	chLoneUp   = 2 // mh0's uplink
)

// fakeHub accepts the first connection made to it, speaks only when the
// test writes, and hands every frame it reads to the test.
type fakeHub struct {
	ln     net.Listener
	conns  chan net.Conn
	conn   net.Conn
	frames chan wire.Frame
}

func startFakeHub(t *testing.T) *fakeHub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &fakeHub{ln: ln, conns: make(chan net.Conn, 1), frames: make(chan wire.Frame, 1024)}
	t.Cleanup(func() {
		ln.Close()
		if h.conn != nil {
			h.conn.Close()
		}
	})
	go func() {
		defer close(h.frames)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		h.conns <- c
		r := wire.NewReader(c)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				return
			}
			h.frames <- f
		}
	}()
	return h
}

func (h *fakeHub) addr() string { return h.ln.Addr().String() }

// send writes f on the hub's end of the connection.
func (h *fakeHub) send(t *testing.T, f wire.Frame) {
	t.Helper()
	if h.conn == nil {
		select {
		case h.conn = <-h.conns:
		case <-time.After(idleTimeout):
			t.Fatal("nothing dialled the fake hub")
		}
	}
	if err := wire.NewWriter(h.conn).WriteFrame(f); err != nil {
		t.Fatalf("fake hub write: %v", err)
	}
}

// waitFor reads frames until one satisfies match (nil: until the connection
// closes), returning the TDelivered confirmations read on the way.
func (h *fakeHub) waitFor(t *testing.T, what string, match func(wire.Frame) bool) []pendKey {
	t.Helper()
	var confirms []pendKey
	deadline := time.After(idleTimeout)
	for {
		select {
		case f, ok := <-h.frames:
			if !ok {
				if match != nil {
					t.Fatalf("hub connection closed before %s (confirmations: %v)", what, confirms)
				}
				return confirms
			}
			if f.Type == wire.TDelivered {
				confirms = append(confirms, pendKey{f.Ch, f.Seq})
			}
			if match != nil && match(f) {
				return confirms
			}
		case <-deadline:
			t.Fatalf("the hub never saw %s (confirmations so far: %v)", what, confirms)
		}
	}
}

// confirmed waits for the hub to receive TDelivered (ch, seq).
func (h *fakeHub) confirmed(t *testing.T, ch int32, seq uint64) []pendKey {
	t.Helper()
	return h.waitFor(t, "the confirmation", func(f wire.Frame) bool {
		return f.Type == wire.TDelivered && f.Ch == ch && f.Seq == seq
	})
}

func count(keys []pendKey, k pendKey) int {
	n := 0
	for _, x := range keys {
		if x == k {
			n++
		}
	}
	return n
}

// startLoneNode starts relay 0 of a one-station, one-host cluster whose hub
// is h.
func startLoneNode(t *testing.T, h *fakeHub, heartbeatMS int64) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{Cluster: ClusterConfig{
		Hub: h.addr(), MSS: []string{"127.0.0.1:0"}, M: 1, N: 1, HeartbeatMS: heartbeatMS,
	}})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(n.Stop)
	return n
}

// rawClient attaches a raw connection to n as mh0 and returns once the node
// echoed an uplink on it, i.e. once the link is registered.
func rawClient(t *testing.T, n *Node) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := wire.NewWriter(conn)
	for _, f := range []wire.Frame{{Type: wire.TAttach, Ch: 0}, {Type: wire.TData, Ch: chLoneUp, Seq: 0, Hop: 1}} {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	r := wire.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(idleTimeout))
	for {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for the uplink echo: %v", err)
		}
		if f.Type == wire.TDelivered && f.Ch == chLoneUp && f.Seq == 0 {
			return conn, r, w
		}
	}
}

// TestNodeResolvesUnechoedDownlinkOnce: a downlink radioed to a client that
// never echoes it reaches the hub as exactly one confirmation when the
// client goes away, and an echo for a frame the node never wrote — it comes
// off an unauthenticated socket — is not passed on.
func TestNodeResolvesUnechoedDownlinkOnce(t *testing.T) {
	hub := startFakeHub(t)
	n := startLoneNode(t, hub, -1)
	conn, r, w := rawClient(t, n)

	hub.send(t, wire.Frame{Type: wire.TData, Ch: chLoneDown, Seq: 0})
	for {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for the downlink: %v", err)
		}
		if f.Type == wire.TData && f.Ch == chLoneDown {
			break
		}
	}
	if err := w.WriteFrame(wire.Frame{Type: wire.TDelivered, Ch: chLoneDown, Seq: 99}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	got := hub.confirmed(t, chLoneDown, 0)
	n.Stop()
	got = append(got, hub.waitFor(t, "", nil)...)
	if c := count(got, pendKey{chLoneDown, 0}); c != 1 {
		t.Errorf("the unechoed downlink reached the hub %d times, want once (confirmations: %v)", c, got)
	}
	if c := count(got, pendKey{chLoneDown, 99}); c != 0 {
		t.Errorf("an echo for a frame the node never wrote was passed on %d times (confirmations: %v)", c, got)
	}
}

// TestNodeCutsClientThatStopsAnsweringPings: a client that answers the
// node's pings until a downlink reaches it and then falls silent is cut off
// after clientMissK unanswered beats, and the downlink it held is confirmed.
func TestNodeCutsClientThatStopsAnsweringPings(t *testing.T) {
	hub := startFakeHub(t)
	n := startLoneNode(t, hub, 10)
	conn, r, w := rawClient(t, n)

	hub.send(t, wire.Frame{Type: wire.TData, Ch: chLoneDown, Seq: 0})
	silent, unanswered := false, 0
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the node never cut off a client that stopped answering its pings")
			}
			break
		}
		switch {
		case f.Type == wire.TData && f.Ch == chLoneDown:
			silent = true
		case f.Type == wire.THeartbeat && silent:
			unanswered++
		case f.Type == wire.THeartbeat:
			if err := w.WriteFrame(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1}); err != nil {
				t.Fatalf("the node cut off a client that answered every ping: %v", err)
			}
		}
	}
	conn.Close()
	if !silent {
		t.Fatal("the link was cut before the downlink reached the client")
	}
	// The answer to the last ping before silence may land after the next
	// beat, which then already counts as one miss.
	if unanswered < clientMissK-1 {
		t.Errorf("cut off after %d unanswered pings, want at least %d", unanswered, clientMissK-1)
	}
	got := hub.confirmed(t, chLoneDown, 0)
	n.Stop()
	if c := count(append(got, hub.waitFor(t, "", nil)...), pendKey{chLoneDown, 0}); c != 1 {
		t.Errorf("the held downlink reached the hub %d times, want once", c)
	}
}

// fakeStation accepts wireless connections and records the frames of the
// first one; it never echoes.
type fakeStation struct {
	ln      net.Listener
	accepts atomic.Int32
	frames  chan wire.Frame // closed when the first connection ends
}

func startFakeStation(t *testing.T) *fakeStation {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeStation{ln: ln, frames: make(chan wire.Frame, 64)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if s.accepts.Add(1) > 1 {
				c.Close()
				continue
			}
			go func() {
				defer close(s.frames)
				defer c.Close()
				r := wire.NewReader(c)
				for {
					f, err := r.ReadFrame()
					if err != nil {
						return
					}
					s.frames <- f
				}
			}()
		}
	}()
	return s
}

// retarget is the TRetarget frame that points mh0 at addr (detaches it when
// addr is empty).
func retarget(gen uint64, addr string) wire.Frame {
	h := wire.Handoff{MH: 0, MSS: 0, Prev: -1, Addr: addr, Gen: gen}
	if addr == "" {
		h.MSS, h.Prev = -1, 0
	}
	return wire.Frame{Type: wire.TRetarget, Ch: -1, Payload: h.Encode()}
}

// TestClientResolvesUplinksFromItsEnd: an uplink written to the station but
// never echoed reaches the hub as exactly one confirmation when a newer
// retarget detaches the client, and an uplink that arrives while the client
// is detached is confirmed to the hub without touching any station.
func TestClientResolvesUplinksFromItsEnd(t *testing.T) {
	hub := startFakeHub(t)
	st := startFakeStation(t)
	c, err := StartClient(ClientConfig{Cluster: ClusterConfig{
		Hub: hub.addr(), MSS: []string{st.ln.Addr().String()}, M: 1, N: 1, HeartbeatMS: -1,
	}})
	if err != nil {
		t.Fatalf("StartClient: %v", err)
	}
	defer c.Stop()

	hub.send(t, retarget(1, st.ln.Addr().String()))
	hub.waitFor(t, "the attach", func(f wire.Frame) bool { return f.Type == wire.TAttached })
	hub.send(t, wire.Frame{Type: wire.TData, Ch: chLoneUp, Seq: 0})
	var atStation []wire.Frame
	for len(atStation) < 2 {
		select {
		case f := <-st.frames:
			atStation = append(atStation, f)
		case <-time.After(idleTimeout):
			t.Fatalf("the uplink never reached the station (it saw %v)", atStation)
		}
	}
	if f := atStation[1]; f.Type != wire.TData || f.Ch != chLoneUp || f.Seq != 0 || f.Hop != 1 {
		t.Fatalf("the station read %+v, want the uplink at hop 1", f)
	}

	hub.send(t, retarget(2, ""))
	got := hub.confirmed(t, chLoneUp, 0)
	hub.send(t, wire.Frame{Type: wire.TData, Ch: chLoneUp, Seq: 1})
	got = append(got, hub.confirmed(t, chLoneUp, 1)...)
	for f := range st.frames { // the detach closed the wireless connection
		atStation = append(atStation, f)
	}
	c.Stop()
	got = append(got, hub.waitFor(t, "", nil)...)

	if n := count(got, pendKey{chLoneUp, 0}); n != 1 {
		t.Errorf("the unechoed uplink reached the hub %d times, want once (confirmations: %v)", n, got)
	}
	if n := count(got, pendKey{chLoneUp, 1}); n != 1 {
		t.Errorf("the detached uplink reached the hub %d times, want once (confirmations: %v)", n, got)
	}
	if len(atStation) != 2 || st.accepts.Load() != 1 {
		t.Errorf("the station saw %d connections and frames %v, want one connection carrying the attach and the first uplink", st.accepts.Load(), atStation)
	}
}

// TestClientLeavesADeadCellForTheNext: a client whose station is down keeps
// retrying it only until the MH moves; a retarget during the backoff sends
// the dialler to the new cell, and the client reports the new attachment.
func TestClientLeavesADeadCellForTheNext(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	hub := startFakeHub(t)
	st := startFakeStation(t)
	c, err := StartClient(ClientConfig{Cluster: ClusterConfig{
		Hub: hub.addr(), MSS: []string{st.ln.Addr().String()}, M: 1, N: 1, HeartbeatMS: -1,
	}})
	if err != nil {
		t.Fatalf("StartClient: %v", err)
	}
	defer c.Stop()

	hub.send(t, retarget(1, deadAddr))
	time.Sleep(50 * time.Millisecond) // several refused dials into the backoff
	hub.send(t, retarget(2, st.ln.Addr().String()))
	hub.waitFor(t, "the attach to the live cell", func(f wire.Frame) bool {
		if f.Type == wire.TAttached && f.Seq == 1 {
			t.Fatal("the client reported attaching to the dead cell")
		}
		return f.Type == wire.TAttached && f.Seq == 2
	})
	if f := <-st.frames; f.Type != wire.TAttach || f.Ch != 0 {
		t.Errorf("the live station read %+v first, want mh0's attach", f)
	}
}

// TestWlinkFailedWriteHoldsNothing: a frame the link cannot write is handed
// back to the caller — send reports false — and is not also held for the
// drop to resolve a second time.
func TestWlinkFailedWriteHoldsNothing(t *testing.T) {
	near, far := net.Pipe()
	go io.Copy(io.Discard, far)
	defer far.Close()
	l := newWlink(&countingConn{Conn: near, failAfter: 1}, true, &member{})
	if l.send(wire.Frame{Type: wire.TData, Ch: chLoneDown, Seq: 7, Hop: 1}) {
		t.Fatal("send reported a frame written over a connection that failed")
	}
	if n := l.held(); n != 0 {
		t.Errorf("the link holds %d frames after a failed write, want 0", n)
	}
}

package netrt

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mobiledist/internal/engine"
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
	return startTestNode(t, ClusterConfig{
		Hub: h.addr(), MSS: []string{"127.0.0.1:0"}, M: 1, N: 1, HeartbeatMS: heartbeatMS,
	})
}

// startTestNode starts relay 0 of cluster cc and stops it when the test ends.
func startTestNode(t *testing.T, cc ClusterConfig) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{Cluster: cc})
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
	return rawClientAs(t, n, 0)
}

// rawClientAs is rawClient for mobile host mh.
func rawClientAs(t *testing.T, n *Node, mh int32) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	up := int32(n.layout.Count()-n.layout.N) + mh
	w := wire.NewWriter(conn)
	for _, f := range []wire.Frame{{Type: wire.TAttach, Ch: mh}, {Type: wire.TData, Ch: up, Seq: 0, Hop: 1}} {
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
		if f.Type == wire.TDelivered && f.Ch == up && f.Seq == 0 {
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

// TestRelaysRejectChannelsTheyDoNotSend: a TData off the hub socket on a
// channel the process does not send on — an id outside the numbering, or
// another station's or host's channel — is dropped and counted on /status,
// and the process goes on relaying. A node sources its station's wired
// channels and downlinks, a client its own uplink.
func TestRelaysRejectChannelsTheyDoNotSend(t *testing.T) {
	layout := engine.ChannelLayout{M: 2, N: 2}
	up := func(mh int32) int32 { return int32(layout.Count()-layout.N) + mh }
	rows := []struct {
		name    string
		start   func(t *testing.T, cc ClusterConfig) http.Handler
		hostile []int32
		valid   int32 // confirmed straight back: a self-loop, or a detached uplink
	}{
		{"node", func(t *testing.T, cc ClusterConfig) http.Handler {
			return startTestNode(t, cc).HealthHandler()
		}, []int32{-1, int32(layout.Count()), int32(layout.M*layout.M + layout.N)}, 0},
		{"client", func(t *testing.T, cc ClusterConfig) http.Handler {
			c, err := StartClient(ClientConfig{Cluster: cc})
			if err != nil {
				t.Fatalf("StartClient: %v", err)
			}
			t.Cleanup(c.Stop)
			return c.HealthHandler()
		}, []int32{-1, int32(layout.Count()), up(1)}, up(0)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			hub := startFakeHub(t)
			st := startFakeStation(t)
			status := row.start(t, ClusterConfig{
				Hub: hub.addr(), MSS: []string{"127.0.0.1:0", st.ln.Addr().String()},
				M: layout.M, N: layout.N, HeartbeatMS: -1,
			})
			for _, ch := range row.hostile {
				hub.send(t, wire.Frame{Type: wire.TData, Ch: ch, Seq: 0})
			}
			hub.send(t, wire.Frame{Type: wire.TData, Ch: row.valid, Seq: 7})
			hub.confirmed(t, row.valid, 7)

			rec := httptest.NewRecorder()
			status.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
			var doc struct {
				Rejected int64 `json:"rejected_frames"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("/status: %v", err)
			}
			if doc.Rejected != int64(len(row.hostile)) {
				t.Errorf("/status rejected_frames = %d, want %d", doc.Rejected, len(row.hostile))
			}
		})
	}
}

// TestMemberCarriesItsOwnChannels checks carries against the layout's own
// decoding for every process of a 3-station, 4-host cluster and every id
// from -1 to Count(): a node carries the wired channels and downlinks its
// station sources, a client its uplink, and nothing else is carried.
func TestMemberCarriesItsOwnChannels(t *testing.T) {
	l := engine.ChannelLayout{M: 3, N: 4}
	cc := ClusterConfig{M: l.M, N: l.N}
	for _, role := range []wire.Role{wire.RoleMSS, wire.RoleMH} {
		ids := l.M
		if role == wire.RoleMH {
			ids = l.N
		}
		for id := 0; id < ids; id++ {
			var m member
			m.init(role, id, cc, 0, nil)
			for ch := -1; ch <= l.Count(); ch++ {
				want := false
				if ch >= 0 && ch < l.Count() {
					kind, a, b := l.Decode(ch)
					want = role == wire.RoleMSS && kind != engine.ChannelUp && a == id ||
						role == wire.RoleMH && kind == engine.ChannelUp && b == id
				}
				if got := m.carries(int32(ch)); got != want {
					t.Errorf("%v %d carries channel %d = %v, want %v", role, id, ch, got, want)
				}
			}
		}
	}
}

// answerLoop reads a raw client's link and plays its part: it answers the
// node's pings and echoes each downlink, handing the downlink to got. With
// stallOnData it falls silent at its first downlink instead — it stops
// reading for good, and the connection stays open.
func answerLoop(r *wire.Reader, w *wire.Writer, stallOnData bool, got chan<- wire.Frame) {
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		answer := wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: f.Seq, Hop: 1}
		switch {
		case f.Type == wire.TData && stallOnData:
			return
		case f.Type == wire.TData:
			got <- f
			answer = wire.Frame{Type: wire.TDelivered, Ch: f.Ch, Seq: f.Seq}
		case f.Type != wire.THeartbeat:
			continue
		}
		if w.WriteFrame(answer) != nil {
			return
		}
	}
}

// TestStalledClientDelaysOtherDownlinksAtMostMissK pins the one cost of a
// node's shared due queue: a client that stops reading with downlinks owed
// holds the station's writer, and with it every other downlink of the
// node, until its link is severed — at most clientMissK heartbeats after it
// fell silent. The stalled link's frames all resolve to the hub.
func TestStalledClientDelaysOtherDownlinksAtMostMissK(t *testing.T) {
	const (
		beat   = 25 * time.Millisecond
		frames = 16 // × 512 KB: more than the loopback socket buffers hold
		slack  = 250 * time.Millisecond
	)
	hub := startFakeHub(t)
	n := startTestNode(t, ClusterConfig{
		Hub: hub.addr(), MSS: []string{"127.0.0.1:0"}, M: 1, N: 2, HeartbeatMS: beat.Milliseconds(),
	})
	down := func(mh int32) int32 { return int32(n.layout.M*n.layout.M) + mh }
	stalledConn, r0, w0 := rawClientAs(t, n, 0)
	stalledConn.(*net.TCPConn).SetReadBuffer(4 << 10)
	_, r1, w1 := rawClientAs(t, n, 1)
	got := make(chan wire.Frame, 1)
	go answerLoop(r0, w0, true, nil)
	go answerLoop(r1, w1, false, got)

	big := make([]byte, wire.MaxFrame/2)
	for seq := uint64(0); seq < frames; seq++ {
		hub.send(t, wire.Frame{Type: wire.TData, Ch: down(0), Seq: seq, Payload: big})
	}
	sent := time.Now()
	hub.send(t, wire.Frame{Type: wire.TData, Ch: down(1), Seq: 0})
	select {
	case <-got:
	case <-time.After(idleTimeout):
		t.Fatal("the other client's downlink never arrived")
	}
	delay := time.Since(sent)
	t.Logf("the other downlink arrived after %v", delay)
	if bound := (clientMissK+1)*beat + slack; delay > bound {
		t.Errorf("a stalled client held the node's other downlinks %v, want at most %v (%d beats of %v and slack)", delay, bound, clientMissK+1, beat)
	}
	confirms := hub.confirmed(t, down(1), 0)
	for seq := uint64(0); seq < frames; seq++ {
		if count(confirms, pendKey{down(0), seq}) == 0 {
			confirms = append(confirms, hub.confirmed(t, down(0), seq)...)
		}
	}
}

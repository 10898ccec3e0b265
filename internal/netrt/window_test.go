package netrt

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/wire"
)

// Channel ids of the M=2, N=2 network the window tests run on.
const (
	chWired01 = 1 // mss0 → mss1
	chWired10 = 2 // mss1 → mss0
	chWired11 = 3 // mss1 → mss1
	chDown01  = 5 // mss0 → mh1
	chUp0     = 8 // mh0's uplink
)

// loneHub starts a hub nobody connects to: frames just queue in the peers'
// outboxes, and the test drives the window by hand on the executor.
func loneHub(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig(2, 2)
	cfg.MSSAddrs = []string{"127.0.0.1:1", "127.0.0.1:1"}
	cfg.HeartbeatEvery = -1
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

// transmit parks a record on ch that appends name to *ran when released and
// then runs then, if any. Executor only.
func transmit(s *System, ch int, ran *[]string, name string, then func()) {
	s.TransmitRec(ch, 1, s.Engine().TimerRec(func() {
		*ran = append(*ran, name)
		if then != nil {
			then()
		}
	}))
}

// queuedData lists the TData frames in p's outbox as "ch/seq".
func queuedData(p *peer) []string {
	p.out.mu.Lock()
	defer p.out.mu.Unlock()
	var got []string
	for _, f := range p.out.items {
		if f.Type == wire.TData {
			got = append(got, fmt.Sprintf("%d/%d", f.Ch, f.Seq))
		}
	}
	return got
}

func wantStrings(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// TestHubWindowReleasesInOrder: an early confirmation waits in place, the
// confirmed prefix leaves in sequence order, a duplicate changes nothing, and
// a confirmation for nothing the hub sent is counted and leaves nothing
// behind — whatever its channel id.
func TestHubWindowReleasesInOrder(t *testing.T) {
	s := loneHub(t)
	s.Do(func() {
		var ran []string
		for _, name := range []string{"a", "b", "c"} {
			transmit(s, chWired01, &ran, name, nil)
		}
		s.resolve(chWired01, 1)
		wantStrings(t, "released after the early confirmation of seq 1", ran)
		s.resolve(chWired01, 0)
		wantStrings(t, "released after seq 0", ran, "a", "b")
		s.resolve(chWired01, 0)
		s.resolve(chWired01, 1)
		wantStrings(t, "released after duplicates", ran, "a", "b")
		if n := s.strays.Load(); n != 0 {
			t.Errorf("stray confirmations = %d after duplicates only, want 0", n)
		}
		for _, stray := range []struct {
			ch  int32
			seq uint64
		}{{chWired01, 3}, {chWired01, 1 << 40}, {chWired10, 0}, {-7, 0}, {1 << 30, 0}} {
			s.resolve(stray.ch, stray.seq)
		}
		if n := s.strays.Load(); n != 5 {
			t.Errorf("stray confirmations = %d, want 5", n)
		}
		wantStrings(t, "released after strays", ran, "a", "b")
		if c := *s.chans.At(chWired01); c.next != 2 || len(c.win) != 1 {
			t.Errorf("window after strays: next=%d len=%d, want next=2 len=1", c.next, len(c.win))
		}
		s.resolve(chWired01, 2)
		wantStrings(t, "released after seq 2", ran, "a", "b", "c")
		if n := s.inflight.Load(); n != 0 {
			t.Errorf("pending records = %d at the end, want 0", n)
		}
		if n := s.Engine().LiveRecs(); n != 0 {
			t.Errorf("engine live records = %d at the end, want 0", n)
		}
	})
	wantStrings(t, "frames queued for mss0", queuedData(s.mssPeers[0]), "1/0", "1/1", "1/2")
}

// TestHubWindowReleaseReentersTransmit: a released record's handler
// transmits on the channel being released. The new entry goes behind what is
// already parked, takes the next sequence number, and the release of the
// confirmed prefix carries on past it correctly.
func TestHubWindowReleaseReentersTransmit(t *testing.T) {
	s := loneHub(t)
	s.Do(func() {
		var ran []string
		transmit(s, chWired01, &ran, "a", func() { transmit(s, chWired01, &ran, "c", nil) })
		transmit(s, chWired01, &ran, "b", nil)
		s.resolve(chWired01, 1)
		s.resolve(chWired01, 0)
		wantStrings(t, "released after seq 1 then seq 0", ran, "a", "b")
		if c := *s.chans.At(chWired01); c.next != 2 || len(c.win) != 1 || c.win[0].confirmed {
			t.Errorf("window: next=%d win=%+v, want next=2 and one unconfirmed entry", c.next, c.win)
		}
		s.resolve(chWired01, 2)
		wantStrings(t, "released after seq 2", ran, "a", "b", "c")
	})
	wantStrings(t, "frames queued for mss0", queuedData(s.mssPeers[0]), "1/0", "1/1", "1/2")
}

// TestHubResyncReplaysUnconfirmedInOrder: what resyncPeer queues for a
// returning station is every unconfirmed entry of the windows that cross it
// — wired channels it sends or receives, its downlinks — in ascending
// (channel, sequence) order, each toward the channel's sending station, and
// nothing else.
func TestHubResyncReplaysUnconfirmedInOrder(t *testing.T) {
	s := loneHub(t)
	s.Do(func() {
		var ran []string
		for _, ch := range []int{chDown01, chWired01, chUp0, chWired11, chWired01, chWired10, chWired01} {
			transmit(s, ch, &ran, "x", nil)
		}
		s.resolve(chWired01, 1) // early: its journey completed, no replay
		for _, p := range append(s.mssPeers, s.mhPeers...) {
			p.clearOutbox()
		}
		s.resyncPeer(wire.RoleMSS, 0, 1)
	})
	wantStrings(t, "replayed through mss0", queuedData(s.mssPeers[0]), "1/0", "1/2", "5/0")
	wantStrings(t, "replayed through mss1", queuedData(s.mssPeers[1]), "2/0")
	wantStrings(t, "replayed through mh0", queuedData(s.mhPeers[0]))
}

// TestNewSystemRejectsChannelIDsBeyondTheFrame: a frame carries its channel
// id as an int32; a network that numbers more channels than that must be
// refused at construction, not truncated per transmission.
func TestNewSystemRejectsChannelIDsBeyondTheFrame(t *testing.T) {
	cfg := DefaultConfig(40000, 40000)
	cfg.MSSAddrs = make([]string, cfg.M)
	if s, err := NewSystem(cfg); err == nil {
		s.Stop()
		t.Fatal("NewSystem(M=N=40000) succeeded: 3.2e9 channel ids do not fit a frame's int32")
	}
}

// strayConn opens what any process that can reach a relay's listener can
// open: a connection that says hello and is then read as a mesh peer, whose
// every TData{Hop:1} the relay forwards to the hub as a confirmation.
func strayConn(t *testing.T, lb *Loopback) *wire.Writer {
	t.Helper()
	conn, err := net.Dial("tcp", lb.Nodes[0].Addr())
	if err != nil {
		t.Fatalf("dial relay: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	w := wire.NewWriter(conn)
	if err := w.WriteFrame(wire.Frame{Type: wire.THello, Ch: -1}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return w
}

// confirmStray writes one forged confirmation and waits until the hub's
// /status counts it.
func confirmStray(t *testing.T, lb *Loopback, w *wire.Writer, ch int32, seq uint64) {
	t.Helper()
	strays := func() float64 {
		rec := httptest.NewRecorder()
		lb.Sys.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/status: %v", err)
		}
		n, _ := doc["stray_confirms"].(float64)
		return n
	}
	before := strays()
	if err := w.WriteFrame(wire.Frame{Type: wire.TData, Hop: 1, Ch: ch, Seq: seq}); err != nil {
		t.Fatalf("write stray confirmation: %v", err)
	}
	for deadline := time.Now().Add(idleTimeout); strays() <= before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("hub /status never counted the stray confirmation (ch %d, seq %d)", ch, seq)
		}
	}
}

// strayCluster is a ready 2×2 loopback cluster whose probe counts wired
// deliveries, with a forged mesh connection into relay 0.
func strayCluster(t *testing.T) (lb *Loopback, ctx core.Context, w *wire.Writer, wired *int) {
	t.Helper()
	lb = startLoopback(t, DefaultConfig(2, 2))
	t.Cleanup(lb.Stop)
	wired = new(int)
	ctx = lb.Sys.Register(&probe{onMSS: func() { *wired++ }})
	lb.Sys.Start()
	waitReady(t, lb)
	return lb, ctx, strayConn(t, lb), wired
}

// sendWired sends one wired message mss0 → mss1 and requires it delivered.
func sendWired(t *testing.T, lb *Loopback, ctx core.Context, wired *int) {
	t.Helper()
	var before int
	lb.Sys.Do(func() {
		before = *wired
		ctx.SendFixed(0, 1, "m", cost.CatAlgorithm)
	})
	settle(t, lb)
	lb.Sys.Do(func() {
		if *wired != before+1 {
			t.Errorf("wired deliveries = %d, want %d: the handler did not run", *wired, before+1)
		}
	})
}

// TestStrayConfirmOutOfRangeChannel: a confirmation whose channel id is no
// channel at all must not take the hub down.
func TestStrayConfirmOutOfRangeChannel(t *testing.T) {
	lb, ctx, w, wired := strayCluster(t)
	confirmStray(t, lb, w, -7, 0)
	confirmStray(t, lb, w, 1<<30, 0)
	sendWired(t, lb, ctx, wired)
}

// TestStrayConfirmBeforeFirstSend: a confirmation for the sequence a channel
// will use next, arriving before the hub sent it, must not make the real
// frame's confirmation look like a duplicate.
func TestStrayConfirmBeforeFirstSend(t *testing.T) {
	lb, ctx, w, wired := strayCluster(t)
	confirmStray(t, lb, w, chWired01, 0)
	sendWired(t, lb, ctx, wired)
}

// TestStrayConfirmFarAhead: a confirmation far beyond anything sent on a
// live channel has nowhere to park.
func TestStrayConfirmFarAhead(t *testing.T) {
	lb, ctx, w, wired := strayCluster(t)
	sendWired(t, lb, ctx, wired)
	confirmStray(t, lb, w, chWired01, 1<<40)
	lb.Sys.Do(func() {
		if c := *lb.Sys.chans.At(chWired01); c.next != 1 || len(c.win) != 0 {
			t.Errorf("window of the live channel: next=%d len=%d, want next=1 len=0", c.next, len(c.win))
		}
	})
	sendWired(t, lb, ctx, wired)
}

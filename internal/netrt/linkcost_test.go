package netrt

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/wire"
)

// TestTickReachesRelaysLossless: whatever tick the hub runs at, the cluster
// config StartLoopback hands the relays — and a cluster file written from
// it — yields exactly that tick. Microsecond units used to truncate 1 ns,
// 999 ns and 1.5 µs, the first two to 0 = "the 50 µs default".
func TestTickReachesRelaysLossless(t *testing.T) {
	for _, tick := range []time.Duration{1, 999, time.Microsecond, 1500, 50 * time.Microsecond, time.Millisecond} {
		cfg := DefaultConfig(1, 1)
		cfg.Tick = tick
		lb := startLoopback(t, cfg)
		hub := lb.Sys.Host.Config().Tick
		lb.Stop()
		if hub != tick || lb.Cluster.tick() != hub {
			t.Errorf("Tick %v: hub runs at %v, relays at %v", tick, hub, lb.Cluster.tick())
		}
		path := filepath.Join(t.TempDir(), "cluster.json")
		if err := lb.Cluster.Save(path); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded, err := LoadCluster(path)
		if err != nil {
			t.Fatalf("LoadCluster: %v", err)
		}
		if loaded.tick() != tick {
			t.Errorf("Tick %v: %v after Save and LoadCluster", tick, loaded.tick())
		}
	}
}

// TestLoadClusterRejectsUnknownKeys: a cluster file from before the tick
// went to nanoseconds must fail, not silently run at the default tick.
func TestLoadClusterRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	old := `{"hub":"127.0.0.1:1","mss":["127.0.0.1:2"],"m":1,"n":1,"tick_us":50}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCluster(path); err == nil {
		t.Error("LoadCluster accepted a file that says tick_us")
	}
}

// TestSubMillisecondConfigSurvivesClusterConfig: the millisecond fields
// round up, so a positive sub-millisecond setting is not read back as
// 0 = "use the default".
func TestSubMillisecondConfigSurvivesClusterConfig(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.HeartbeatEvery = 300 * time.Microsecond
	cfg.DialBackoffMin = 200 * time.Microsecond
	cfg.DialBackoffMax = 1500 * time.Microsecond
	lb := startLoopback(t, cfg)
	lb.Stop()
	bmin, bmax := lb.Cluster.backoffBounds()
	if got := lb.Cluster.heartbeat(); got != time.Millisecond {
		t.Errorf("heartbeat %v, want 1ms", got)
	}
	if bmin != time.Millisecond || bmax != 2*time.Millisecond {
		t.Errorf("backoff bounds %v..%v, want 1ms..2ms", bmin, bmax)
	}
	if ceilMS(0) != 0 || ceilMS(-time.Second) != -1 || ceilMS(3*time.Millisecond) != 3 {
		t.Error("ceilMS moved a value that needed no rounding")
	}
}

// TestRelayPipeOverlapsLatencies is rt's TestPipeOverlapsLatencies across
// sockets: k messages queued on one downlink, each with latency L, reach
// the host in about L, not k × L.
func TestRelayPipeOverlapsLatencies(t *testing.T) {
	const (
		k    = 8
		tick = 5 * time.Millisecond
		lat  = 4
		l    = lat * tick
	)
	cfg := DefaultConfig(1, 1)
	cfg.Tick = tick
	cfg.Wireless = core.Delay{Min: lat, Max: lat}
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	var got []int
	var last time.Time
	ctx := lb.Sys.Register(&probe{onMH: func(_ core.Context, _ core.MHID, msg core.Message) {
		got = append(got, msg.(int))
		last = time.Now()
	}})
	lb.Sys.Start()
	waitReady(t, lb)

	var start time.Time
	lb.Sys.Do(func() {
		start = time.Now()
		for i := 0; i < k; i++ {
			ctx.SendToMH(0, 0, i, cost.CatAlgorithm)
		}
	})
	settle(t, lb)
	var order []int
	var took time.Duration
	lb.Sys.Do(func() { order, took = append(order, got...), last.Sub(start) })
	if !sort.IntsAreSorted(order) || len(order) != k {
		t.Fatalf("received %v, want 0..%d in order", order, k-1)
	}
	if took < l {
		t.Errorf("downlink drained in %v, before the link latency %v", took, l)
	}
	if took > k*l/2 {
		t.Errorf("downlink of %d frames drained in %v: latencies are serialised (one latency is %v, %d in turn %v)", k, took, l, k, k*l)
	}
}

// TestIdleHopCostsItsSocketsNotATimer is the idle-hop guard: on a quiet
// 1-station, 1-host cluster at Tick = 1ns, a message issued alone reaches
// its host in tens of microseconds. With relays that fell back to a 50 µs
// tick every hop armed a sub-millisecond timer, which an idle Go process
// serves a millisecond late: the median was above 1.1 ms by construction.
func TestIdleHopCostsItsSocketsNotATimer(t *testing.T) {
	const sends = 200
	cfg := DefaultConfig(1, 1)
	cfg.Tick = time.Nanosecond
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	arrived := make(chan time.Time, 1)
	ctx := lb.Sys.Register(&probe{onMH: func(core.Context, core.MHID, core.Message) { arrived <- time.Now() }})
	lb.Sys.Start()
	waitReady(t, lb)

	hops := make([]time.Duration, sends)
	for i := range hops {
		var issued time.Time
		lb.Sys.Do(func() {
			issued = time.Now()
			ctx.SendToMH(0, 0, i, cost.CatAlgorithm)
		})
		select {
		case at := <-arrived:
			hops[i] = at.Sub(issued)
		case <-time.After(idleTimeout):
			t.Fatalf("message %d never arrived", i)
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	if median := hops[sends/2]; median > 500*time.Microsecond {
		t.Errorf("median idle hop %v, want under 500µs (p10 %v, p90 %v)", median, hops[sends/10], hops[sends*9/10])
	}
}

// countingConn counts Write calls and, when failAfter is positive, accepts
// that many bytes in total and then fails every write (after passing on
// whatever part still fits, as a dying connection does).
type countingConn struct {
	net.Conn
	mu        sync.Mutex
	writes    int
	failAfter int
	written   int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	room := len(p)
	if c.failAfter > 0 {
		if room > c.failAfter-c.written {
			room = c.failAfter - c.written
		}
		c.written += room
	}
	c.mu.Unlock()
	if room < len(p) {
		n, _ := c.Conn.Write(p[:room])
		c.Conn.Close()
		return n, errors.New("countingConn: connection lost mid-write")
	}
	return c.Conn.Write(p)
}

func (c *countingConn) writeCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// farSide reads frames off the far end of a peer's connection until it
// closes, and returns them on the channel.
func farSide(conn net.Conn) <-chan []wire.Frame {
	out := make(chan []wire.Frame, 1)
	go func() {
		var frames []wire.Frame
		r := wire.NewReader(conn)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				out <- frames
				return
			}
			frames = append(frames, f)
		}
	}()
	return out
}

// testPeer starts an accept-managed peer (connections are handed to it with
// attach) and stops it when the test ends.
func testPeer(t *testing.T) *peer {
	t.Helper()
	var wg sync.WaitGroup
	p := newPeer("test", &wg, nil)
	p.start()
	t.Cleanup(func() {
		p.close()
		wg.Wait()
	})
	return p
}

func attachPipe(p *peer, failAfter int) (*countingConn, <-chan []wire.Frame) {
	near, far := net.Pipe()
	cc := &countingConn{Conn: near, failAfter: failAfter}
	frames := farSide(far)
	p.attach(cc, wire.NewReader(cc))
	return cc, frames
}

func waitOutboxDrained(t *testing.T, p *peer) {
	t.Helper()
	if !p.out.waitDrained(time.Now().Add(idleTimeout), nil) {
		t.Fatal("outbox did not drain")
	}
}

func dataFrames(from, to int) []wire.Frame {
	var fs []wire.Frame
	for seq := from; seq < to; seq++ {
		fs = append(fs, wire.Frame{Type: wire.TData, Ch: 3, Seq: uint64(seq), Latency: 2})
	}
	return fs
}

// TestWriterBatchesWhatTheOutboxHolds: frames queued while no connection
// stood go out in order on the next one, in fewer writes than frames.
func TestWriterBatchesWhatTheOutboxHolds(t *testing.T) {
	const frames = 32
	p := testPeer(t)
	for _, f := range dataFrames(0, frames) {
		p.send(f)
	}
	cc, far := attachPipe(p, 0)
	waitOutboxDrained(t, p)
	p.dropCurrent()
	got := <-far
	if len(got) != frames {
		t.Fatalf("far side read %d frames, want %d", len(got), frames)
	}
	for i, f := range got {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d: order lost", i, f.Seq)
		}
	}
	if w := cc.writeCalls(); w >= frames {
		t.Errorf("%d frames took %d writes: the outbox was not batched", frames, w)
	}
}

// TestWriterResendsBatchAfterFailedFlush: a connection that dies mid-flush
// consumes nothing; the whole batch goes out again on the next connection,
// so the far side sees every sequence number, in order once duplicates
// (which fall below the hub's send window) are dropped.
func TestWriterResendsBatchAfterFailedFlush(t *testing.T) {
	const frames = 32
	p := testPeer(t)
	for _, f := range dataFrames(0, frames) {
		p.send(f)
	}
	_, first := attachPipe(p, 100) // dies inside the batch
	seen := <-first
	if len(seen) == 0 || len(seen) >= frames {
		t.Fatalf("first connection carried %d of %d frames; the test needs it to die mid-batch", len(seen), frames)
	}
	if p.outboxDepth() != frames {
		t.Fatalf("outbox holds %d frames after a failed flush, want all %d", p.outboxDepth(), frames)
	}
	_, second := attachPipe(p, 0)
	waitOutboxDrained(t, p)
	p.dropCurrent()
	seen = append(seen, <-second...)

	next := uint64(0)
	for _, f := range seen {
		switch {
		case f.Seq < next: // duplicate of a frame the first connection carried
		case f.Seq == next:
			next++
		default:
			t.Fatalf("seq %d arrived while %d was still owed", f.Seq, next)
		}
	}
	if next != frames {
		t.Fatalf("far side saw sequence numbers up to %d, want %d", next, frames)
	}
}

// TestConsumeAfterClearPopsNothing is the epoch guarantee for a batch: a
// consumer that peeked before a clear removes nothing queued after it.
func TestConsumeAfterClearPopsNothing(t *testing.T) {
	q := newFifo[int]()
	q.put(1)
	q.put(2)
	batch, epoch, _ := q.peek()
	q.clear()
	q.put(3)
	q.put(4)
	q.put(5)
	q.consume(epoch, len(batch))
	if got, _, _ := q.peek(); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("queue holds %v after a stale consume, want [3 4 5]", got)
	}
}

// TestClearOutboxRacingFlush runs the same guarantee against a live writer:
// the outbox is cleared over and over while the writer flushes, and every
// frame queued after the last clear must still arrive, once and in order.
func TestClearOutboxRacingFlush(t *testing.T) {
	const rounds, marked = 200, 16
	p := testPeer(t)
	_, far := attachPipe(p, 0)
	for r := 0; r < rounds; r++ {
		for _, f := range dataFrames(0, 4) {
			p.send(f)
		}
		p.clearOutbox()
	}
	for _, f := range dataFrames(1000, 1000+marked) {
		p.send(f)
	}
	waitOutboxDrained(t, p)
	p.dropCurrent()
	next := uint64(1000)
	for _, f := range <-far {
		if f.Seq >= 1000 {
			if f.Seq != next {
				t.Fatalf("post-clear frame %d arrived, want %d", f.Seq, next)
			}
			next++
		}
	}
	if next != 1000+marked {
		t.Fatalf("%d of %d frames queued after the last clear arrived", next-1000, marked)
	}
}

// TestNodeEchoesEveryBufferedUplink: k uplink frames that reach a node in
// one segment are echoed k times with no further input — the echoes are
// flushed when the reader runs out of buffered frames, and a partial frame
// at the end of the segment does not hold them back.
func TestNodeEchoesEveryBufferedUplink(t *testing.T) {
	const k = 16
	hub, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	go func() { // a hub that accepts and never speaks
		for {
			c, err := hub.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	n, err := StartNode(NodeConfig{Cluster: ClusterConfig{
		Hub: hub.Addr().String(), MSS: []string{"127.0.0.1:0"}, M: 1, N: 1, HeartbeatMS: -1,
	}})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	defer n.Stop()

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	segment, _ := wire.AppendFrame(nil, wire.Frame{Type: wire.TAttach, Ch: 0})
	for seq := uint64(0); seq < k; seq++ {
		segment, _ = wire.AppendFrame(segment, wire.Frame{Type: wire.TData, Ch: 2, Seq: seq, Hop: 1})
	}
	tail, _ := wire.AppendFrame(nil, wire.Frame{Type: wire.TData, Ch: 2, Seq: k, Hop: 1})
	cut := len(tail) / 2
	if _, err := conn.Write(append(segment, tail[:cut]...)); err != nil {
		t.Fatal(err)
	}

	r := wire.NewReader(conn)
	expectEcho := func(seq uint64) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("echo %d: %v (the node is sitting on unflushed echoes)", seq, err)
		}
		if f.Type != wire.TDelivered || f.Ch != 2 || f.Seq != seq {
			t.Fatalf("echo %d: got %v ch=%d seq=%d", seq, f.Type, f.Ch, f.Seq)
		}
	}
	for seq := uint64(0); seq < k; seq++ {
		expectEcho(seq)
	}
	if _, err := conn.Write(tail[cut:]); err != nil {
		t.Fatal(err)
	}
	expectEcho(k)
}

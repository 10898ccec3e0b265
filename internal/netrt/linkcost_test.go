package netrt

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
// went to nanoseconds must fail, not silently run at the default tick, and
// so must one that still tunes the dial backoff, which has no knob.
func TestLoadClusterRejectsUnknownKeys(t *testing.T) {
	for _, key := range []string{`"tick_us":50`, `"dial_backoff_min_ms":2`, `"dial_backoff_max_ms":100`} {
		path := filepath.Join(t.TempDir(), "cluster.json")
		old := `{"hub":"127.0.0.1:1","mss":["127.0.0.1:2"],"m":1,"n":1,` + key + `}`
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCluster(path); err == nil {
			t.Errorf("LoadCluster accepted a file that says %s", key)
		}
	}
}

// TestSubMillisecondConfigSurvivesClusterConfig: the millisecond field
// rounds up, so a positive sub-millisecond setting is not read back as
// 0 = "use the default".
func TestSubMillisecondConfigSurvivesClusterConfig(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.HeartbeatEvery = 300 * time.Microsecond
	lb := startLoopback(t, cfg)
	lb.Stop()
	if got := lb.Cluster.heartbeat(); got != time.Millisecond {
		t.Errorf("heartbeat %v, want 1ms", got)
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

// TestRelayOrdersByDueTime is the ordering the per-channel pipes gave for
// free, on one queue: a lone node at a 1 ms tick whose downlinks have no
// client, so each is confirmed the moment it is relayed and the hub reads
// the relay order. A short latency on one channel overtakes a long one
// queued earlier on another; mixed latencies on one channel still leave in
// send order (the FIFO clamp).
func TestRelayOrdersByDueTime(t *testing.T) {
	const a, b = 1, 2 // mss0 → mh0, mss0 → mh1
	rows := []struct {
		name string
		send []wire.Frame
		want []pendKey
	}{
		{"short on B overtakes long on A",
			[]wire.Frame{{Ch: a, Seq: 0, Latency: 100}, {Ch: b, Seq: 0, Latency: 1}},
			[]pendKey{{b, 0}, {a, 0}}},
		{"mixed latencies on A keep send order",
			[]wire.Frame{{Ch: a, Seq: 0, Latency: 50}, {Ch: a, Seq: 1, Latency: 1}, {Ch: a, Seq: 2, Latency: 20}, {Ch: a, Seq: 3}},
			[]pendKey{{a, 0}, {a, 1}, {a, 2}, {a, 3}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			hub := startFakeHub(t)
			startTestNode(t, ClusterConfig{
				Hub: hub.addr(), MSS: []string{"127.0.0.1:0"}, M: 1, N: 2, HeartbeatMS: -1, TickNS: int64(time.Millisecond),
			})
			for _, f := range row.send {
				f.Type = wire.TData
				hub.send(t, f)
			}
			last := row.want[len(row.want)-1]
			if got := hub.confirmed(t, last.ch, last.seq); !reflect.DeepEqual(got, row.want) {
				t.Errorf("relayed %v, want %v", got, row.want)
			}
		})
	}
}

// TestDueQueueArmsATimerOnlyForAHeadAhead: frames already due when the
// node's due queue looks at them are relayed without arming its timer (at
// sub-microsecond ticks no relay ever arms one); a head still ahead arms
// the one timer.
func TestDueQueueArmsATimerOnlyForAHeadAhead(t *testing.T) {
	for _, row := range []struct {
		latency uint32
		armed   bool
	}{{0, false}, {20, true}} {
		hub := startFakeHub(t)
		n := startTestNode(t, ClusterConfig{
			Hub: hub.addr(), MSS: []string{"127.0.0.1:0"}, M: 1, N: 1, HeartbeatMS: -1, TickNS: int64(time.Millisecond),
		})
		for seq := uint64(0); seq < 3; seq++ {
			hub.send(t, wire.Frame{Type: wire.TData, Ch: chLoneDown, Seq: seq, Latency: row.latency})
		}
		hub.confirmed(t, chLoneDown, 2)
		n.Stop() // orders the due goroutine's writes before the read below
		if armed := n.timer != nil; armed != row.armed {
			t.Errorf("latency %d ticks: timer armed %v, want %v", row.latency, armed, row.armed)
		}
	}
}

// TestRelayQueuesEveryChannelOnOneGoroutine is rt's TestNoGoroutinePerChannel
// across sockets: one frame on each of a node's M wired and N downlink
// channels, all queued at once for 200 ticks of 1 ms, leaves the process's
// goroutine count flat until they have landed — not one more per channel.
func TestRelayQueuesEveryChannelOnOneGoroutine(t *testing.T) {
	const m, nh = 3, 16
	hub := startFakeHub(t)
	mss := []string{"127.0.0.1:0"}
	var stations []*fakeStation
	for i := 1; i < m; i++ {
		st := startFakeStation(t)
		stations = append(stations, st)
		mss = append(mss, st.ln.Addr().String())
	}
	n := startTestNode(t, ClusterConfig{
		Hub: hub.addr(), MSS: mss, M: m, N: nh, HeartbeatMS: -1, TickNS: int64(time.Millisecond),
	})
	hub.send(t, wire.Frame{Type: wire.TData, Ch: 0, Seq: 0}) // self-loop: the hub link is up
	hub.confirmed(t, 0, 0)
	for _, st := range stations {
		if f := <-st.frames; f.Type != wire.THello {
			t.Fatalf("station read %+v first, want the mesh hello", f)
		}
	}
	before := runtime.NumGoroutine()

	for j := 0; j < m; j++ {
		hub.send(t, wire.Frame{Type: wire.TData, Ch: int32(j), Seq: 1, Latency: 200})
	}
	for mh := 0; mh < nh; mh++ {
		hub.send(t, wire.Frame{Type: wire.TData, Ch: int32(n.layout.M*n.layout.M + mh), Seq: 0, Latency: 200})
	}
	peak, landed := 0, 0
	deadline := time.After(idleTimeout)
	for landed < nh+1 { // the downlinks (no client) and the self-loop
		select {
		case f := <-hub.frames:
			if f.Type == wire.TDelivered {
				landed++
			}
		case <-time.After(time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d frames landed", landed, nh+1)
		}
		peak = max(peak, runtime.NumGoroutine())
	}
	if peak > before+2 {
		t.Errorf("%d goroutines while %d channels' frames were queued, %d before", peak, m+nh, before)
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
	p := newPeer(&wg, nil)
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
	q := newFifo()
	for _, f := range dataFrames(1, 3) {
		q.put(f)
	}
	batch, epoch, _ := q.peek()
	q.clear()
	for _, f := range dataFrames(3, 6) {
		q.put(f)
	}
	q.consume(epoch, len(batch))
	if got, _, _ := q.peek(); len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("queue holds %v after a stale consume, want seqs [3 4 5]", got)
	}
}

// TestOutboxCycleAllocFree: once its array has grown, a put/peek/consume
// cycle allocates nothing, whether the consume empties the queue or leaves
// a frame queued behind the batch — consume keeps the array instead of
// stranding it for the next burst to regrow from nothing.
func TestOutboxCycleAllocFree(t *testing.T) {
	q := newFifo()
	frames := dataFrames(0, 8)
	cycle := func() {
		for _, f := range frames {
			q.put(f)
		}
		batch, epoch, _ := q.peek()
		q.put(frames[0]) // queued while the batch is written
		q.consume(epoch, len(batch))
		batch, epoch, _ = q.peek()
		if len(batch) != 1 || batch[0].Seq != 0 {
			t.Fatalf("after a partial consume the queue holds %v, want the one frame queued behind the batch", batch)
		}
		q.consume(epoch, len(batch))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm put/peek/consume cycle: %v allocs, want 0", allocs)
	}
	if n := q.depth(); n != 0 {
		t.Errorf("%d frames left queued, want 0", n)
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

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/netrt"
	"mobiledist/internal/obs"
	"mobiledist/internal/rt"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// Every live cluster is M=4 stations and N=16 hosts: with the hub that is
// 21 entities, small enough that two cores are shared by the program's own
// goroutines and nothing else.
const (
	liveM = 4
	liveN = 16
	// warmupPerChain is how many messages each chain completes before the
	// timed phase, so connection buffers, record pools and pipe goroutines
	// exist when timing starts. Warm-up is part of set-up time.
	warmupPerChain = 16
	// drainTimeout bounds the wait for in-flight messages after the timed
	// phase; a cluster that does not drain is a wedge.
	drainTimeout = 10 * time.Second
)

// liveSystem is what the benchmark calls on a live substrate's hub; both
// rt.System and netrt.System provide it.
type liveSystem interface {
	Register(core.Algorithm) core.Context
	Start()
	Do(func())
	WaitIdle(time.Duration) bool
	Engine() *engine.Engine
	Stats() engine.Stats
	Meter() *cost.Meter
}

// liveCluster is one started substrate.
type liveCluster struct {
	sys  liveSystem
	lb   *netrt.Loopback // nil on rt
	stop func()
}

// frameTap counts what the cluster's processes write to their sockets.
type frameTap struct {
	frames, data, hop0, heartbeats, bytes atomic.Int64
}

// tapCounts is a reading of a frameTap.
type tapCounts struct {
	frames, data, hop0, heartbeats, bytes int64
}

func (t *frameTap) read() tapCounts {
	return tapCounts{t.frames.Load(), t.data.Load(), t.hop0.Load(), t.heartbeats.Load(), t.bytes.Load()}
}

func (a tapCounts) since(b tapCounts) tapCounts {
	return tapCounts{a.frames - b.frames, a.data - b.data, a.hop0 - b.hop0, a.heartbeats - b.heartbeats, a.bytes - b.bytes}
}

func (t *frameTap) tap(raw []byte, f wire.Frame) {
	t.frames.Add(1)
	t.bytes.Add(int64(len(raw)))
	switch f.Type {
	case wire.TData:
		t.data.Add(1)
		if f.Hop == 0 {
			t.hop0.Add(1)
		}
	case wire.THeartbeat:
		t.heartbeats.Add(1)
	}
}

// startLive builds and starts a cluster of the given substrate ("rt",
// "tcp" or "udp") with m stations and n hosts, registers alg on it and
// waits until it is ready. tr and tap are nil on untraced runs.
func startLive(substrate string, m, n int, seed uint64, alg core.Algorithm, tr *obs.Tracer, tap *frameTap, sp *spanRecorder, parent int) (*liveCluster, core.Context, error) {
	c := &liveCluster{}
	var err error
	switch substrate {
	case "rt":
		sp.in("rt.NewSystem", parent, func(int) {
			cfg := rt.DefaultConfig(m, n)
			cfg.Seed, cfg.Tick, cfg.Obs = seed, time.Nanosecond, tr
			var s *rt.System
			if s, err = rt.NewSystem(cfg); err == nil {
				c.sys, c.stop = s, s.Stop
			}
		})
	case netrt.TransportTCP, netrt.TransportUDP:
		sp.in("netrt.StartLoopback", parent, func(int) {
			cfg := netrt.DefaultConfig(m, n)
			cfg.Seed, cfg.Tick, cfg.Obs, cfg.Transport = seed, time.Nanosecond, tr, substrate
			if tap != nil {
				cfg.FrameTap = tap.tap
			}
			if c.lb, err = netrt.StartLoopback(cfg); err == nil {
				c.sys, c.stop = c.lb.Sys, c.lb.Stop
			}
		})
	default:
		err = fmt.Errorf("unknown substrate %q", substrate)
	}
	if err != nil {
		return nil, nil, err
	}
	ctx := c.sys.Register(alg)
	sp.in("Start", parent, func(int) { c.sys.Start() })
	if c.lb != nil {
		ready := false
		sp.in("netrt.WaitReady", parent, func(int) { ready = c.lb.Sys.WaitReady(20 * time.Second) })
		if !ready {
			c.stop()
			return nil, nil, fmt.Errorf("%s cluster not ready after 20s", substrate)
		}
	}
	return c, ctx, nil
}

// pairOp is one pre-generated chain operation: who sends to whom.
type pairOp struct{ from, to uint8 }

// genPairOps draws the op stream of a live workload from its seed. Chains
// replay it cyclically, so its length only has to be long enough that the
// stream does not favour any pair.
func genPairOps(seed uint64, n, count int) []pairOp {
	rng := sim.NewRNG(seed)
	ops := make([]pairOp, count)
	for i := range ops {
		from := rng.Intn(n)
		to := rng.Intn(n - 1)
		if to >= from {
			to++
		}
		ops[i] = pairOp{uint8(from), uint8(to)}
	}
	return ops
}

// Phases of a chain run. Chains run during warm-up and during every timed
// slice; in between they are paused, which ends each chain at its next
// delivery, so the cluster drains and the host reference can be taken on a
// quiescent program.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phasePause
)

// latSamples is how many latency samples a slice keeps at most.
const latSamples = 1 << 14

// latSampler keeps a slice's latency samples in fixed memory, whatever the
// delivery rate: when full it drops every other sample and from then on
// keeps half as many of the new ones. The benchmark's own buffers must not
// be what the process's peak RSS is made of.
type latSampler struct {
	v      []uint32 // issue→HandleMH, ns
	stride int      // one sample in stride is kept
	skip   int      // samples to pass over before the next kept one
}

func (s *latSampler) reset() {
	s.v, s.stride, s.skip = make([]uint32, 0, latSamples), 1, 0
}

func (s *latSampler) add(ns uint32) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.v) == cap(s.v) {
		half := len(s.v) / 2
		for i := 0; i < half; i++ {
			s.v[i] = s.v[2*i]
		}
		s.v = s.v[:half]
		s.stride *= 2
	}
	s.skip = s.stride - 1
	s.v = append(s.v, ns)
}

// chainMsg is the payload of one chain's in-flight message. The engine
// runs at the hub and payloads never cross the wire, so the issue time
// travels in it as a plain value; each chain owns one and reuses it.
type chainMsg struct {
	chain    int
	from, to core.MHID
	seq      uint32
	issued   time.Time
	sampled  bool
}

// chainDriver is the closed-loop generator and the checker of the live
// workloads. It is an ordinary algorithm: every chain issues its next
// message from inside the delivery handler of its previous one, on the
// program's own executor, so the benchmark adds no thread and no
// connection to the system it measures.
type chainDriver struct {
	ctx    core.Context
	n      int
	ops    []pairOp
	msgs   []chainMsg
	next   []int
	phase  atomic.Int32
	sp     *spanRecorder
	parent int
	// warm is closed once warmTarget messages have been delivered.
	warm       chan struct{}
	warmTarget int64

	// Executor-only state, read by the benchmark after WaitIdle via Do.
	sendSeq, recvSeq  []uint32
	issued, delivered int64
	measured          int64      // deliveries of the current slice
	lat               latSampler // their latencies
	violations        int64
	firstViolation    string
	failedNotified    int64
	sendErrors        int64
}

func newChainDriver(n, chains int, ops []pairOp, sp *spanRecorder, parent int) *chainDriver {
	d := &chainDriver{
		n: n, ops: ops, sp: sp, parent: parent,
		warm: make(chan struct{}), warmTarget: int64(chains) * warmupPerChain,
		msgs:    make([]chainMsg, chains),
		next:    make([]int, chains),
		sendSeq: make([]uint32, n*n),
		recvSeq: make([]uint32, n*n),
	}
	for c := range d.next {
		d.next[c] = c
	}
	return d
}

func (d *chainDriver) Name() string { return "bench-chains" }

func (d *chainDriver) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {}

func (d *chainDriver) violate(format string, args ...any) {
	if d.violations++; d.firstViolation == "" {
		d.firstViolation = fmt.Sprintf(format, args...)
	}
}

// start issues every chain's next message; call it through Do, on a
// drained cluster.
func (d *chainDriver) start() {
	now := time.Now()
	for c := range d.msgs {
		d.issue(c, now)
	}
}

// startSlice opens a timed slice and starts the chains; call it through Do.
func (d *chainDriver) startSlice() {
	d.measured = 0
	d.lat.reset()
	d.phase.Store(phaseMeasure)
	d.start()
}

func (d *chainDriver) issue(c int, now time.Time) {
	op := d.ops[d.next[c]%len(d.ops)]
	d.next[c] += len(d.msgs)
	pair := int(op.from)*d.n + int(op.to)
	d.sendSeq[pair]++
	d.issued++
	progress.attempted.Add(1)
	m := &d.msgs[c]
	*m = chainMsg{chain: c, from: core.MHID(op.from), to: core.MHID(op.to), seq: d.sendSeq[pair], issued: now,
		sampled: d.sp != nil && d.issued%64 == 0}
	if err := d.ctx.SendMHToMH(m.from, m.to, m, cost.CatAlgorithm); err != nil {
		d.sendErrors++
		progress.settled.Add(1)
	}
}

// HandleMH checks the delivery (right host, exactly once, per-pair FIFO),
// times it, and issues the chain's next message.
func (d *chainDriver) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	now := time.Now()
	m := msg.(*chainMsg)
	d.delivered++
	progress.settled.Add(1)
	pair := int(m.from)*d.n + int(m.to)
	if at != m.to {
		d.violate("message for mh%d delivered at mh%d", m.to, at)
	}
	if m.seq != d.recvSeq[pair]+1 {
		d.violate("pair mh%d->mh%d: got seq %d after %d", m.from, m.to, m.seq, d.recvSeq[pair])
	}
	d.recvSeq[pair] = m.seq
	if d.delivered == d.warmTarget {
		close(d.warm)
	}
	switch d.phase.Load() {
	case phaseMeasure:
		d.measured++
		d.lat.add(uint32(min(now.Sub(m.issued), math.MaxUint32)))
		if m.sampled {
			d.sp.add(spanMessage, d.parent, m.issued, now)
		}
	case phasePause:
		return // the chain ends here
	}
	d.issue(m.chain, now)
}

func (d *chainDriver) OnDeliveryFailure(core.Context, core.MSSID, core.MHID, core.Message, core.FailReason) {
	d.failedNotified++
	progress.settled.Add(1)
}

// liveSlice is one timed stretch of chain traffic; the host reference is
// sampled before and after it, on the drained cluster.
type liveSlice struct {
	window, cpu time.Duration
	measured    int64
	lat         []uint32
}

// liveSegment is one cluster lifetime: set-up, warm-up, the timed slices,
// checks, stop.
type liveSegment struct {
	setup, ready, stop time.Duration
	slices             []liveSlice
	// hosts are the host-reference samples taken during the lifetime.
	hosts []float64
	// phase is the wall time from the first slice's start to the last
	// one's end, pauses included; tap and mem cover it.
	phase                          time.Duration
	issued, delivered              int64
	unfinished                     int64
	problems                       []string
	stats                          engine.Stats
	messages                       int64
	mem                            memDelta
	goroutines                     int
	footprintMB                    float64 // runtime memory held, cluster still up
	tap                            tapCounts
	outboxMax, pendMax             int64
	dgramPackets, dgramRetransmits int64
}

// measured is the number of deliveries in the segment's timed slices.
func (s liveSegment) measured() (n int64) {
	for _, sl := range s.slices {
		n += sl.measured
	}
	return n
}

// liveOpts are the knobs of one segment.
type liveOpts struct {
	substrate string
	chains    int
	seed      uint64
	slices    int
	window    time.Duration // of one slice
	tr        *obs.Tracer   // nil: untraced
	sp        *spanRecorder // nil: untraced
	withMem   bool
	dumpTo    string // directory for wedge dumps
	workload  string
}

// runLiveSegment runs the closed-loop chains on a fresh cluster for
// o.slices timed slices.
func runLiveSegment(o liveOpts) (liveSegment, error) {
	var seg liveSegment
	host, err := hostRef()
	if err != nil {
		return seg, err
	}
	baseline := runtime.NumGoroutine()
	root := o.sp.begin("segment", -1)
	defer o.sp.end(root)

	seg.hosts = append(seg.hosts, host.factor())
	t0 := time.Now()
	setupSpan := o.sp.begin("setup", root)
	var ops []pairOp
	o.sp.in("bench.genPairOps", setupSpan, func(int) { ops = genPairOps(o.seed, liveN, 1<<16) })
	d := newChainDriver(liveN, o.chains, ops, o.sp, root)
	var tap *frameTap
	if o.sp != nil {
		tap = &frameTap{}
	}
	cl, ctx, err := startLive(o.substrate, liveM, liveN, o.seed, d, o.tr, tap, o.sp, setupSpan)
	if err != nil {
		o.sp.end(setupSpan)
		return seg, err
	}
	d.ctx = ctx
	currentCluster.Store(cl)
	defer currentCluster.Store(nil)
	seg.ready = time.Since(t0)
	warm := false
	o.sp.in("warm-up", setupSpan, func(int) {
		cl.sys.Do(d.start)
		select {
		case <-d.warm:
			d.phase.Store(phasePause)
			warm = cl.sys.WaitIdle(drainTimeout)
		case <-time.After(drainTimeout):
		}
	})
	o.sp.end(setupSpan)
	if !warm {
		where := dumpWedge(o.dumpTo, o.workload, cl)
		cl.stop()
		return seg, fmt.Errorf("warm-up did not finish and drain in %v; state dumped to %s", drainTimeout, where)
	}
	seg.setup = time.Since(t0)
	seg.goroutines = runtime.NumGoroutine() - baseline
	seg.hosts = append(seg.hosts, host.factor())

	// The sampler is part of the traced run only: it reads the public
	// health surface every 100 ms from the benchmark's own goroutine.
	stopSampler := func() {}
	if o.sp != nil && cl.lb != nil {
		stopSampler = startHealthSampler(cl.lb.Sys, &seg)
	}
	var m0 runtime.MemStats
	if o.withMem {
		m0 = readMem()
	}
	var tap0 tapCounts
	if tap != nil {
		tap0 = tap.read()
	}
	phaseSpan := o.sp.begin("chains", root)
	t1 := time.Now()
	drained := true
	for i := 0; i < o.slices && drained; i++ {
		var sl liveSlice
		cl.sys.Do(d.startSlice)
		c0, ts := cpuTime(), time.Now()
		time.Sleep(o.window)
		d.phase.Store(phasePause)
		sl.window, sl.cpu = time.Since(ts), cpuTime()-c0
		if drained = cl.sys.WaitIdle(drainTimeout); !drained {
			// A wedge: what is still in flight counts as failed below.
			seg.problems = append(seg.problems, "cluster did not drain: "+dumpWedge(o.dumpTo, o.workload, cl))
		}
		cl.sys.Do(func() { sl.measured, sl.lat = d.measured, d.lat.v })
		seg.hosts = append(seg.hosts, host.factor())
		seg.slices = append(seg.slices, sl)
	}
	seg.phase = time.Since(t1)
	o.sp.end(phaseSpan)
	if tap != nil {
		seg.tap = tap.read().since(tap0)
	}
	if o.withMem {
		seg.mem = memSince(m0)
	}
	stopSampler()

	var liveRecs int
	cl.sys.Do(func() {
		seg.issued, seg.delivered = d.issued, d.delivered
		seg.unfinished = d.issued - d.delivered - d.failedNotified - d.sendErrors
		liveRecs = cl.sys.Engine().LiveRecs()
		if d.violations > 0 {
			seg.problems = append(seg.problems, fmt.Sprintf("%d order/duplicate violations, first: %s", d.violations, d.firstViolation))
		}
		if d.failedNotified+d.sendErrors > 0 {
			seg.problems = append(seg.problems, fmt.Sprintf("%d delivery failures, %d send errors on a fault-free cluster", d.failedNotified, d.sendErrors))
		}
		// Exactly once: every pair received precisely what it was sent.
		for p := range d.sendSeq {
			if drained && d.sendSeq[p] != d.recvSeq[p] {
				seg.problems = append(seg.problems, fmt.Sprintf("pair mh%d->mh%d: sent %d, received %d", p/d.n, p%d.n, d.sendSeq[p], d.recvSeq[p]))
				break
			}
		}
	})
	if drained && liveRecs != 0 {
		seg.problems = append(seg.problems, fmt.Sprintf("engine holds %d delivery records after drain", liveRecs))
	}
	seg.stats = cl.sys.Stats()
	for _, kind := range cost.Kinds() {
		seg.messages += cl.sys.Meter().KindTotal(kind)
	}
	if o.sp != nil && cl.lb != nil {
		seg.dgramPackets, seg.dgramRetransmits = scrapeDgram(cl.lb)
	}

	seg.footprintMB = footprintMB()
	t2 := time.Now()
	o.sp.in("Stop", root, func(int) { cl.stop() })
	seg.stop = time.Since(t2)
	if left := waitGoroutines(baseline, 3*time.Second); left > 0 {
		seg.problems = append(seg.problems, fmt.Sprintf("%d goroutines above baseline after Stop", left))
	}
	return seg, nil
}

// waitGoroutines waits for the goroutine count to fall back to baseline
// and returns how many are still above it at the deadline.
func waitGoroutines(baseline int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		left := runtime.NumGoroutine() - baseline
		if left <= 0 || time.Now().After(deadline) {
			return max(left, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hubStatus is the part of the hub's /status document the benchmark reads.
type hubStatus struct {
	PendingRecords int64 `json:"pending_records"`
	Dgram          []struct {
		Sent        int64 `json:"packets_sent"`
		Received    int64 `json:"packets_received"`
		Retransmits int64 `json:"retransmits"`
	} `json:"dgram_sessions"`
}

// scrapeStatus serves /status in-process, without a socket.
func scrapeStatus(h http.Handler) (hubStatus, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var st hubStatus
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

// scrapeDgram sums the datagram counters of every listener-side session in
// the cluster (hub and stations); both directions of a session are counted
// at its listener end, as packets sent plus packets received.
func scrapeDgram(lb *netrt.Loopback) (packets, retransmits int64) {
	handlers := []http.Handler{lb.Sys.HealthHandler()}
	for _, n := range lb.Nodes {
		handlers = append(handlers, n.HealthHandler())
	}
	for _, h := range handlers {
		st, err := scrapeStatus(h)
		if err != nil {
			continue
		}
		for _, s := range st.Dgram {
			packets += s.Sent + s.Received
			retransmits += s.Retransmits
		}
	}
	return packets, retransmits
}

// startHealthSampler polls PeerHealth and /status every 100 ms and keeps
// the deepest outbox and pending-record count seen.
func startHealthSampler(sys *netrt.System, seg *liveSegment) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		h := sys.HealthHandler()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for _, p := range sys.PeerHealth() {
				seg.outboxMax = max(seg.outboxMax, int64(p.OutboxDepth))
			}
			if st, err := scrapeStatus(h); err == nil {
				seg.pendMax = max(seg.pendMax, st.PendingRecords)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/dgram"
	"mobiledist/internal/dtn"
	"mobiledist/internal/execq"
	"mobiledist/internal/netrt"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
	"mobiledist/internal/workload"
)

// probeReps is how often every isolated probe repeats; its metric is the
// median, stored with min and spread.
const probeReps = 5

// probeSet collects the metrics of the isolated layer probes: each times
// calls into one layer's public API, away from every workload.
type probeSet struct {
	sp *spanRecorder
	// parent is the span of the probe that is running.
	parent int
	// shrink divides every probe's op count; the test suite sets it so the
	// probes stay a check that each metric is produced, not a measurement.
	shrink  int
	metrics map[string]metricValue
	// routeNSPerStep is the plain sim-route probe's wall time per kernel
	// step: the baseline dtn.ns_per_step is measured against.
	routeNSPerStep float64
}

func (p *probeSet) put(name, unit string, v []float64) {
	p.metrics[name] = metricValue{Value: median(v), Unit: unit, Samples: len(v), Min: minOf(v), Spread: spread(v)}
}

// timeReps runs fn probeReps times and stores ns per op of each run.
func (p *probeSet) timeReps(name string, opsPerRep int, fn func()) {
	var v []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		fn()
		v = append(v, float64(time.Since(t0).Nanoseconds())/float64(opsPerRep))
	}
	p.put(name, "ns", v)
}

// runProbes runs every isolated probe, each inside its own span. A probe
// that cannot run reports why on standard error and leaves its metrics 0.
func runProbes(sp *spanRecorder, shrink int) map[string]metricValue {
	p := &probeSet{sp: sp, shrink: shrink, metrics: map[string]metricValue{}}
	for _, probe := range []struct {
		name string
		fn   func() error
	}{
		{"workload", p.probeWorkload},
		{"sim", p.probeKernel},
		{"engine", p.probeMove},
		{"faults+obs", p.probeWrappers},
		{"obs", p.probeObsRecord},
		{"execq", p.probeExecq},
		{"rt", p.probeRTHop},
		{"wire", p.probeWire},
		{"dgram", p.probeDgram},
		{"netrt", p.probeNetrtHop},
		{"dtn", p.probeDtn},
	} {
		id := sp.begin("probe:"+probe.name, -1)
		p.parent = id
		if err := probe.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", probe.name, err)
		}
		sp.end(id)
	}
	p.metrics["probe.route_ns_per_step"] = metricValue{Value: p.routeNSPerStep, Unit: "ns"}
	return p.metrics
}

func (p *probeSet) probeWorkload() error {
	ops := 200_000 / p.shrink
	var err error
	p.timeReps("workload.gen_ns_per_op", ops, func() {
		_, err = workload.GenScale(workload.ScaleConfig{N: 100_000, M: 1000, Seed: 1, Kind: workload.ScaleRoute, Ops: ops})
	})
	return err
}

// probeKernel times one ScheduleKeyed+Step pair against a standing
// population of 1e4 events, on the single heap and on 512 shards.
func (p *probeSet) probeKernel() error {
	const standing = 10_000
	pairs := 200_000 / p.shrink
	for _, k := range []struct {
		name   string
		kernel func() *sim.Kernel
	}{
		{"sim.single.schedule_step_ns", func() *sim.Kernel { return sim.NewKernel(1) }},
		{"sim.sharded.schedule_step_ns", func() *sim.Kernel { return sim.NewShardedKernel(1, 512) }},
	} {
		var v []float64
		for r := 0; r < probeReps; r++ {
			kern, rng, fn := k.kernel(), sim.NewRNG(7), func() {}
			for j := 0; j < standing; j++ {
				kern.ScheduleKeyed(j, sim.Time(rng.Intn(16)+1), fn)
			}
			t0 := time.Now()
			for i := 0; i < pairs; i++ {
				kern.ScheduleKeyed(i%standing, sim.Time(rng.Intn(16)+1), fn)
				kern.Step()
			}
			v = append(v, float64(time.Since(t0).Nanoseconds())/float64(pairs))
		}
		p.put(k.name, "ns", v)
	}
	return nil
}

// probeMove times a complete cell switch (leave, travel, join, handoff):
// Move then Run to quiescence, at N=1024.
func (p *probeSet) probeMove() error {
	const n, m = 1024, 16
	moves := 2000 / p.shrink
	var err error
	p.timeReps("engine.move_ns", moves, func() {
		cfg := core.DefaultConfig(m, n)
		var sys *core.System
		if sys, err = core.NewSystem(cfg); err != nil {
			return
		}
		rng := sim.NewRNG(3)
		for i := 0; i < moves && err == nil; i++ {
			_ = sys.Move(core.MHID(rng.Intn(n)), core.MSSID(rng.Intn(m)))
			err = sys.Run()
		}
	})
	return err
}

// probeWrappers prices the two substrate wrappers on a small sim-route:
// the fault injector with a plan that never fires (a flap scheduled after
// the run ends), and the obs seam with a tracer set, each minus the same
// run without. The three variants alternate inside every repetition, so
// slow drift of the host cancels in the differences.
func (p *probeSet) probeWrappers() error {
	size := simSize{N: 10_000, M: 100, Ops: 40_000 / p.shrink}
	inert := &core.FaultPlan{Flaps: []core.Flap{{MSS: 0, From: 1 << 40, Until: 1<<40 + 1}}}
	run := func(plan *core.FaultPlan, tr *obs.Tracer) (time.Duration, uint64, error) {
		prevPlan := core.DefaultFaultPlan()
		core.SetDefaultFaultPlan(plan)
		defer core.SetDefaultFaultPlan(prevPlan)
		runtime.GC()
		rep, err := runSimRep(buildScale(workload.ScaleRoute), size, 1, tr, nil, false)
		if err == nil && len(rep.counts.Problems) > 0 {
			err = fmt.Errorf("%s", rep.counts.Problems[0])
		}
		return rep.wall, rep.counts.Steps, err
	}
	var faultsNS, obsNS, perStep []float64
	for r := 0; r < probeReps; r++ {
		plain, steps, err := run(nil, nil)
		if err != nil {
			return err
		}
		withFaults, _, err := run(inert, nil)
		if err != nil {
			return err
		}
		withObs, _, err := run(nil, obs.NewTracer(1<<16))
		if err != nil {
			return err
		}
		faultsNS = append(faultsNS, float64((withFaults-plain).Nanoseconds())/float64(size.Ops))
		obsNS = append(obsNS, float64((withObs-plain).Nanoseconds())/float64(size.Ops))
		perStep = append(perStep, float64(plain.Nanoseconds())/float64(steps))
	}
	p.put("faults.wrap_ns_per_msg", "ns", faultsNS)
	p.put("obs.wrap_ns_per_msg", "ns", obsNS)
	p.routeNSPerStep = median(perStep)
	return nil
}

func (p *probeSet) probeObsRecord() error {
	records := 1_000_000 / p.shrink
	p.timeReps("obs.record_ns", records, func() {
		tr := obs.NewTracer(1 << 16)
		for i := 0; i < records; i++ {
			tr.Record(sim.Time(i), obs.EvTransmit, int32(i), 2, 3)
		}
	})
	return nil
}

// probeExecq times a task's trip through the executor queue
// (Push→Pop→Done) with the consumer draining concurrently, fed by one
// producer and by one producer per CPU.
func (p *probeSet) probeExecq() error {
	hops := 200_000 / p.shrink
	run := func(producers int) func() {
		return func() {
			q := execq.New()
			consumed := make(chan struct{})
			go func() {
				defer close(consumed)
				for {
					fn, ok := q.Pop()
					if !ok {
						return
					}
					fn()
					q.Done()
				}
			}()
			var wg sync.WaitGroup
			task := func() {}
			for i := 0; i < producers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < hops/producers; j++ {
						q.Push(task)
					}
				}()
			}
			wg.Wait()
			q.Close()
			<-consumed
		}
	}
	p.timeReps("execq.hop_ns", hops, run(1))
	p.timeReps("execq.contended_hop_ns", hops, run(runtime.GOMAXPROCS(0)))
	return nil
}

// hopChain is the probe algorithm of the live substrates: one chain of
// SendToMH from the host's serving station, so every message is exactly
// one downlink transmit.
type hopChain struct {
	ctx    core.Context
	left   int
	issued time.Time
	us     []float64
	done   chan struct{}
}

func (h *hopChain) Name() string { return "bench-hop" }

func (h *hopChain) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {}

func (h *hopChain) send() {
	h.issued = time.Now()
	h.ctx.SendToMH(0, 0, nil, cost.CatAlgorithm)
}

func (h *hopChain) HandleMH(core.Context, core.MHID, core.Message) {
	h.us = append(h.us, float64(time.Since(h.issued).Nanoseconds())/1e3)
	if h.left--; h.left > 0 {
		h.send()
		return
	}
	close(h.done)
}

// hopP50 starts a substrate, runs probeReps blocks of hops one-transmit
// messages on it and returns each block's median in µs.
func (p *probeSet) hopP50(substrate string, m, n, hops int) ([]float64, error) {
	h := &hopChain{}
	cl, ctx, err := startLive(substrate, m, n, 1, h, nil, nil, p.sp, p.parent)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	h.ctx = ctx
	var v []float64
	for r := 0; r < probeReps; r++ {
		h.left, h.us, h.done = hops, h.us[:0], make(chan struct{})
		cl.sys.Do(h.send)
		select {
		case <-h.done:
		case <-time.After(drainTimeout):
			return nil, fmt.Errorf("%s hop probe stalled: %s", substrate, dumpWedge(outDir, "probe-"+substrate, cl))
		}
		cl.sys.WaitIdle(drainTimeout)
		v = append(v, median(h.us))
	}
	return v, nil
}

func (p *probeSet) probeRTHop() error {
	v, err := p.hopP50("rt", liveM, liveN, 400/p.shrink)
	if err == nil {
		p.put("rt.hop_us_p50", "us", v)
	}
	return err
}

func (p *probeSet) probeNetrtHop() error {
	for _, tr := range []string{netrt.TransportTCP, netrt.TransportUDP} {
		v, err := p.hopP50(tr, 1, 1, 60/p.shrink)
		if err != nil {
			return err
		}
		p.put("netrt.hop_us_p50."+tr, "us", v)
	}
	return nil
}

// mallocs counts heap allocations of n calls of fn.
func mallocs(n int, fn func()) float64 {
	before := readMem().Mallocs
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(readMem().Mallocs-before) / float64(n)
}

// probeWire times the codec on the frame the data path is made of: a TData
// frame carrying an Envelope, encoded into a reused buffer.
func (p *probeSet) probeWire() error {
	frames := 200_000 / p.shrink
	f := wire.Frame{Type: wire.TData, Ch: 37, Seq: 123_456, Hop: 1, Latency: 3,
		Payload: wire.Envelope{Kind: 2, A: 3, B: 11}.Encode()}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	encode := func() { buf, _ = wire.AppendFrame(buf[:0], f) }
	decode := func() { _, _, err = wire.DecodeFrame(enc) }
	p.timeReps("wire.encode_data_ns", frames, func() {
		for i := 0; i < frames; i++ {
			encode()
		}
	})
	p.timeReps("wire.decode_data_ns", frames, func() {
		for i := 0; i < frames; i++ {
			decode()
		}
	})
	if err != nil {
		return err
	}
	p.metrics["wire.encode_allocs"] = metricValue{Value: mallocs(10_000, encode), Unit: "count"}
	p.metrics["wire.decode_allocs"] = metricValue{Value: mallocs(10_000, decode), Unit: "count"}
	p.metrics["wire.data_frame_bytes"] = metricValue{Value: float64(len(enc)), Unit: "B"}

	streamed := 50_000 / p.shrink
	var perS []float64
	for r := 0; r < probeReps; r++ {
		var pipe bytes.Buffer
		w, rd := wire.NewWriter(&pipe), wire.NewReader(&pipe)
		t0 := time.Now()
		for i := 0; i < streamed; i++ {
			if err := w.WriteFrame(f); err != nil {
				return err
			}
		}
		for i := 0; i < streamed; i++ {
			if _, err := rd.ReadFrame(); err != nil {
				return err
			}
		}
		perS = append(perS, float64(streamed)/time.Since(t0).Seconds())
	}
	p.put("wire.stream_frames_per_s", "1/s", perS)
	return nil
}

// echoP50 measures probeReps blocks of round trips of a 64-byte message
// over conn, whose far end echoes, and returns each block's median in µs.
func echoP50(conn net.Conn, trips int) ([]float64, error) {
	msg, back := make([]byte, 64), make([]byte, 64)
	var v []float64
	for r := 0; r < probeReps; r++ {
		us := make([]float64, 0, trips)
		for i := 0; i < trips; i++ {
			t0 := time.Now()
			if _, err := conn.Write(msg); err != nil {
				return nil, err
			}
			if _, err := io.ReadFull(conn, back); err != nil {
				return nil, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		v = append(v, median(us))
	}
	return v, nil
}

// serve accepts one connection on ln and runs handle on it, for the far
// end of a probe; the returned wait blocks until handle has returned.
func serve(ln net.Listener, handle func(net.Conn)) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		handle(conn)
	}()
	return func() { <-done }
}

func echo(conn net.Conn) { _, _ = io.Copy(conn, conn) }

// dgramDial mints a connect token for ln and dials it.
func dgramDial(ln *dgram.Listener, secret []byte) (*dgram.Conn, error) {
	addr := ln.Addr().String()
	token, key, err := dgram.Mint(secret, dgram.TokenInfo{Role: byte(wire.RoleMH), Expiry: time.Now().Add(time.Minute), Addrs: []string{addr}})
	if err != nil {
		return nil, err
	}
	return dgram.Dial(addr, token, key, dgram.Config{})
}

// probeDgram measures the datagram session layer on loopback: round trip
// (beside a plain TCP pair as control), bulk throughput with and without
// fragmentation, and session establishment.
func (p *probeSet) probeDgram() error {
	secret := []byte("bench-probe-secret")
	trips := 200 / p.shrink

	// Round trips, and the same over the kernel's TCP as control.
	ln, err := dgram.Listen("127.0.0.1:0", secret, dgram.Config{})
	if err != nil {
		return err
	}
	defer ln.Close()
	wait := serve(ln, echo)
	conn, err := dgramDial(ln, secret)
	if err != nil {
		return err
	}
	v, err := echoP50(conn, trips)
	conn.Close()
	wait()
	if err != nil {
		return err
	}
	p.put("dgram.echo_us_p50", "us", v)

	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tln.Close()
	wait = serve(tln, echo)
	tconn, err := net.Dial("tcp", tln.Addr().String())
	if err != nil {
		return err
	}
	v, err = echoP50(tconn, trips)
	tconn.Close()
	wait()
	if err != nil {
		return err
	}
	p.put("tcp.echo_us_p50", "us", v)

	// Bulk: 1 MiB per repetition in 1 KiB writes (one datagram each) and in
	// 16 KiB writes (fragmented at the default MTU of 1200 bytes), timed
	// until the far end has read the last byte.
	total := (1 << 20) / p.shrink
	for _, b := range []struct {
		name  string
		write int
	}{{"dgram.stream_mb_per_s", 1 << 10}, {"dgram.frag_mb_per_s", 16 << 10}} {
		var mbps []float64
		for r := 0; r < probeReps; r++ {
			wait := serve(ln, func(c net.Conn) { _, _ = io.CopyN(io.Discard, c, int64(total)) })
			conn, err := dgramDial(ln, secret)
			if err != nil {
				return err
			}
			chunk := make([]byte, b.write)
			t0 := time.Now()
			for sent := 0; sent < total; sent += len(chunk) {
				if _, err := conn.Write(chunk); err != nil {
					conn.Close()
					return err
				}
			}
			wait()
			mbps = append(mbps, float64(total)/1e6/time.Since(t0).Seconds())
			conn.Close()
		}
		p.put(b.name, "MB/s", mbps)
	}

	// Session establishment: mint, connect, accept.
	var dialMS []float64
	for r := 0; r < probeReps; r++ {
		wait := serve(ln, func(net.Conn) {})
		t0 := time.Now()
		conn, err := dgramDial(ln, secret)
		if err != nil {
			return err
		}
		wait()
		dialMS = append(dialMS, millis(time.Since(t0)))
		conn.Close()
	}
	p.put("dgram.dial_ms", "ms", dialMS)
	return nil
}

// probeDtn times the replica store and the summary-vector codec at the
// sizes sim-custody configures: 4096 bundles, 64 per host, 1024 ids.
func (p *probeSet) probeDtn() error {
	const bundles, perMH = 4096, 64
	fill := func() *dtn.Store {
		s := dtn.NewStore(bundles, perMH)
		for i := 0; i < bundles; i++ {
			s.Put(&dtn.Bundle{ID: dtn.BundleID(i + 1), MH: core.MHID(i / perMH)})
		}
		return s
	}
	p.timeReps("dtn.store_put_ns", bundles, func() {
		s := fill()
		for i := 0; i < bundles; i++ {
			s.Remove(dtn.BundleID(i + 1))
		}
	})
	full := fill()
	p.timeReps("dtn.store_formh_ns", bundles/perMH, func() {
		for mh := 0; mh < bundles/perMH; mh++ {
			if got := len(full.ForMH(core.MHID(mh))); got != perMH {
				panic(fmt.Sprintf("dtn probe: ForMH returned %d bundles, want %d", got, perMH))
			}
		}
	})
	ids := make([]dtn.BundleID, 1024)
	for i := range ids {
		ids[i] = dtn.BundleID(3*i + 1)
	}
	var enc []byte
	codecs := 200 / p.shrink
	p.timeReps("dtn.summary_encode_ns", codecs, func() {
		for i := 0; i < codecs; i++ {
			enc = dtn.EncodeSummary(ids)
		}
	})
	var err error
	p.timeReps("dtn.summary_decode_ns", codecs, func() {
		for i := 0; i < codecs; i++ {
			_, err = dtn.DecodeSummary(enc)
		}
	})
	p.metrics["dtn.summary_bytes"] = metricValue{Value: float64(len(enc)), Unit: "B"}
	return err
}

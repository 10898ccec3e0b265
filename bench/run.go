package main

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"mobiledist/internal/netrt"
	"mobiledist/internal/obs"
	"mobiledist/internal/workload"
)

// workloadDef is one benchmark workload: a sim workload has a build and a
// size, a live one a substrate and a chain count.
type workloadDef struct {
	Name string
	// Why is the reason the workload exists, repeated in BENCHMARK.json.
	Why string

	build simBuild
	size  simSize

	substrate string
	chains    int
	// waitBound says throughput and latency are set by waits, not by CPU:
	// they do not follow the host factor and are reported raw, as the quiet
	// quartile of the slices (setQuiet).
	waitBound bool
}

func (w workloadDef) live() bool { return w.substrate != "" }

var workloads = []workloadDef{
	{Name: "sim-route", build: buildScale(workload.ScaleRoute), size: simSize{N: 100_000, M: 1000, Ops: 400_000},
		Why: "routed MSS-to-MH delivery at N=1e5: kernel and engine runRec do all the work, sockets none"},
	{Name: "sim-chase", build: buildScale(workload.ScaleSearchChase), size: simSize{N: 20_000, M: 200, Ops: 150_000},
		Why: "every op moves its target then routes at it: waiter queues, handoff and stale reroutes instead of straight delivery"},
	{Name: "sim-custody", build: buildCustody, size: simSize{N: 2048, M: 32, Ops: 6000},
		Why: "5% wireless loss, 1 op in 4 flips connectivity, epidemic custody: dtn, faults and the ARQ and custody seams do the work"},
	{Name: "rt-route", substrate: "rt", chains: 32,
		Why: "32 closed chains of MH-to-MH sends on goroutines: execq, pipes and engine, no sockets and no codec"},
	{Name: "tcp-route", substrate: netrt.TransportTCP, chains: 32,
		Why: "the same 32 chains over a loopback TCP cluster: netrt peers and outboxes, wire and kernel sockets dominate"},
	{Name: "udp-route", substrate: netrt.TransportUDP, chains: 32,
		Why: "the same chains over authenticated datagrams: adds dgram seal/open, replay window, acks and retransmit timers"},
	{Name: "tcp-idle", substrate: netrt.TransportTCP, chains: 1, waitBound: true,
		Why: "one chain on the tcp-route cluster: no queueing, so per-hop waits set latency and batching cannot hide"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOpts are the settings of one workload run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale shrinks sim sizes (the test suite runs at 1/100).
	scale float64
	// lifetimes is how many cluster lifetimes a live workload's untraced
	// part is made of; the test suite runs one.
	lifetimes int
	outDir    string
}

// metricValue is one reported number. Samples is the count of measurements
// behind it; Min and Spread (interquartile distance over the median) are
// kept for numbers that are medians of repetitions.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
	// Raw is the same statistic before division by the host factor
	// (host.go); 0 where the value is not normalised.
	Raw float64 `json:"raw,omitempty"`
	// All are the repetitions a median was taken over, in run order.
	All []float64 `json:"all,omitempty"`
}

// result is everything one workload run found.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Counts is a sim workload's block of simulated statistics.
	Counts string `json:"counts,omitempty"`
}

func (r *result) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

// setMedian reports the median of repetitions with its min and spread,
// divided by the run's host factor f (host.go); f = 1 leaves it raw.
func (r *result) setMedian(name, unit string, raw []float64, f float64) {
	v := make([]float64, len(raw))
	for i, x := range raw {
		v[i] = x / f
	}
	mv := metricValue{Value: median(v), Unit: unit, Samples: len(v), Min: minOf(v), Spread: spread(v), All: v}
	if f != 1 {
		mv.Raw = median(raw)
	}
	r.Metrics[name] = mv
}

// setQuiet reports the q-quantile of the slices in place of their median:
// the first quartile of a time, the third of a rate. It is for numbers the
// host factor cannot correct (a wait-bound chain), where a busy neighbour
// only ever adds waiting: the quiet quarter of a run is then what the
// program does when left alone, and it stays put while less than three
// quarters of the run are disturbed, where the median gives way at one half.
func (r *result) setQuiet(name, unit string, v []float64, q float64) {
	r.Metrics[name] = metricValue{Value: quantile(v, q), Unit: unit, Samples: len(v), Min: minOf(v), Spread: spread(v), All: v}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// measured is what the layer pass needs from a workload run beyond its
// end-to-end metrics.
type measured struct {
	sim       []simRep      // untraced reps
	simTraced []simRep      // traced reps
	seg       []liveSegment // untraced lifetimes
	segTraced []liveSegment // traced lifetimes
	p50ms     float64       // raw
	tracedDPS float64
	plainDPS  float64
}

// runWorkload runs one workload for o.seconds and reports its end-to-end
// metrics. With o.trace half of the time goes to the untraced run and a
// quarter to a traced one (the probes take the rest), spans go to sp and
// the raw measurements come back for the layer pass; end-to-end numbers
// always come from the untraced part.
func runWorkload(w workloadDef, o runOpts, sp *spanRecorder) (result, measured, error) {
	res := result{Workload: w.Name, Seed: o.seed, Metrics: map[string]metricValue{}}
	var m measured
	var err error
	if w.live() {
		err = runLive(w, o, sp, &res, &m)
	} else {
		err = runSim(w, o, sp, &res, &m)
	}
	if err != nil {
		return res, m, err
	}
	// The process's peak RSS, for the record: it carries the benchmark's
	// own 32 MB reference array and is the maximum over every repetition,
	// where mem_mb is the median one.
	res.set("rss.max_mb", "MB", maxRSSMB(), 1)
	if res.Attempted > 0 {
		res.FailShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, m, nil
}

// repeatFor calls fn until budget has passed, and at least twice: two runs
// of one seed are what the determinism check compares.
func repeatFor(budget time.Duration, fn func() error) error {
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

func runSim(w workloadDef, o runOpts, sp *spanRecorder, res *result, m *measured) error {
	size := w.size
	if o.scale > 0 && o.scale != 1 {
		size = size.scaled(o.scale)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	host, err := hostRef()
	if err != nil {
		return err
	}
	hosts := []float64{host.factor()}
	rep := func(tr *obs.Tracer, sp *spanRecorder, into *[]simRep) func() error {
		return func() error {
			// Collect the previous repetition's system and hand its memory
			// back, outside the timings, so every repetition starts from
			// the same heap and its footprint is its own.
			debug.FreeOSMemory()
			r, err := runSimRep(w.build, size, o.seed, tr, sp, o.trace)
			*into = append(*into, r)
			hosts = append(hosts, host.factor())
			return err
		}
	}
	if err := repeatFor(budget, rep(nil, nil, &m.sim)); err != nil {
		return err
	}
	f := median(hosts)
	if o.trace {
		tr := obs.NewTracer(1 << 16).WithMetrics(obs.NewMetrics())
		if err := repeatFor(budget/2, rep(tr, sp, &m.simTraced)); err != nil {
			return err
		}
		sp.counts = tr.MetricsSnapshot().Counts
	}

	res.Counts = m.sim[0].counts.block()
	for i, r := range slices.Concat(m.sim, m.simTraced) {
		c := r.counts
		res.Attempted += c.Ops
		res.Failed += max(c.Ops-c.Delivered-c.Failed, 0)
		for _, p := range c.Problems {
			res.problem("rep %d: %s", i, p)
		}
		// Simulated statistics repeat exactly; only host time may differ.
		if b := c.block(); b != res.Counts {
			res.problem("rep %d: count block differs from rep 0 of the same seed:\n%s", i, b)
		}
	}
	rate := func(reps []simRep) []float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, float64(r.counts.Delivered+r.counts.Failed)/seconds(r.wall))
		}
		return v
	}
	var runMS, cpuPerK, setup, memMB []float64
	for _, r := range m.sim {
		kmsg := float64(r.counts.Delivered+r.counts.Failed) / 1000
		runMS = append(runMS, millis(r.wall))
		cpuPerK = append(cpuPerK, millis(r.cpu)/kmsg)
		setup = append(setup, seconds(r.setup))
		memMB = append(memMB, r.footprintMB)
	}
	// The simulator is pure computation: every time is divided by the
	// run's host factor, every rate multiplied by it.
	m.plainDPS, m.tracedDPS = median(rate(m.sim)), median(rate(m.simTraced))
	res.setMedian("host.factor", "ratio", hosts, 1)
	res.setMedian("delivered_per_s", "msgs/s", rate(m.sim), 1/f)
	// On the simulator nothing is in flight in host time, so the latency a
	// user sees is the time to finish one fixed-size run. A run has ten to
	// twenty of them, so what is reported as the p99 is their nearest-rank
	// p90: the second or third slowest. The slowest is too often the one
	// repetition a neighbour's burst fell on: over two times ten runs it
	// spread by 12 and 20% on sim-custody where the p90 spread by 10 and 8%.
	p50, p99 := quantile(runMS, 0.50), quantile(runMS, 0.90)
	res.Metrics["latency_p50_ms"] = metricValue{Value: p50 / f, Unit: "ms", Samples: len(runMS), Raw: p50}
	res.Metrics["latency_p99_ms"] = metricValue{Value: p99 / f, Unit: "ms", Samples: len(runMS), Raw: p99}
	res.setMedian("cpu_ms_per_kmsg", "ms", cpuPerK, f)
	res.setMedian("setup_s", "s", setup, f)
	res.setMedian("mem_mb", "MB", memMB, 1)
	m.p50ms = p50
	return nil
}

// liveLifetimes is how many cluster lifetimes a benchmark run is made of:
// set-up is measured that many times, and memory of one lifetime is handed
// back before the next, so peak RSS is the largest, not a sum of leftovers.
const liveLifetimes = 3

// sliceLength is how long one timed slice of a cluster lifetime aims to be.
// Every slice gives one sample of each metric and the run reports the median
// slice (the quiet quartile on a wait-bound workload), so what disturbs the
// box for a moment spoils the slices it falls in and no more. The shorter the
// slices, the more of them stay clean: with a neighbour busy in bursts of 0.3
// to 4 s, ten runs of tcp-idle spread their p99 by 27% with one 4 s slice per
// lifetime, 16% with two of 2 s, 13% with four of 1 s and 10% with eight of
// 0.5 s; and its CPU per message, which such a neighbour moves between three
// levels (280, 480 and 680 ms per 1000 with both, none and one of the two
// cores taken), by 40% and by 6%. Half a second is as short as tcp-idle
// allows: its one chain delivers 150 messages in it, so a slice's p99 is its
// second slowest message.
const sliceLength = 500 * time.Millisecond

func runLive(w workloadDef, o runOpts, sp *spanRecorder, res *result, m *measured) error {
	// A traced run gives one of its lifetimes to the traced part and keeps
	// a quarter of the time for the probes.
	plain, traced, share := o.lifetimes, 0, 1/float64(o.lifetimes)
	if o.trace {
		plain, traced, share = max(o.lifetimes-1, 1), 1, 0.25
	}
	timed := time.Duration(o.seconds * share * float64(time.Second)) // of one lifetime
	nSlices := max(int((timed+sliceLength/2)/sliceLength), 1)
	opts := liveOpts{substrate: w.substrate, chains: w.chains, seed: o.seed, slices: nSlices, window: timed / time.Duration(nSlices),
		withMem: o.trace, dumpTo: o.outDir, workload: w.Name}
	lifetimes := func(n int, into *[]liveSegment) error {
		for i := 0; i < n; i++ {
			debug.FreeOSMemory()
			seg, err := runLiveSegment(opts)
			if err != nil {
				return err
			}
			*into = append(*into, seg)
		}
		return nil
	}
	if err := lifetimes(plain, &m.seg); err != nil {
		return err
	}
	if o.trace {
		opts.tr = obs.NewTracer(1 << 16).WithMetrics(obs.NewMetrics())
		opts.sp = sp
		if err := lifetimes(traced, &m.segTraced); err != nil {
			return err
		}
		sp.counts = opts.tr.MetricsSnapshot().Counts
	}

	for i, s := range slices.Concat(m.seg, m.segTraced) {
		res.Attempted += s.issued
		res.Failed += max(s.unfinished, 0)
		for _, p := range s.problems {
			res.problem("lifetime %d: %s", i, p)
		}
	}
	rate := func(segs []liveSegment) []float64 {
		var v []float64
		for _, s := range segs {
			for _, sl := range s.slices {
				v = append(v, float64(sl.measured)/seconds(sl.window))
			}
		}
		return v
	}
	// Every slice gives one sample of each metric.
	var hosts, p50, p99, cpuPerK, setup, memMB []float64
	samples := 0
	for _, s := range m.seg {
		hosts = append(hosts, s.hosts...)
		setup = append(setup, seconds(s.setup))
		memMB = append(memMB, s.footprintMB)
		for _, sl := range s.slices {
			if sl.measured == 0 {
				return fmt.Errorf("%s: no message was delivered in a timed slice", w.Name)
			}
			lat := make([]float64, len(sl.lat))
			for i, ns := range sl.lat {
				lat[i] = float64(ns) / 1e6
			}
			samples += len(lat)
			p50, p99 = append(p50, quantile(lat, 0.50)), append(p99, quantile(lat, 0.99))
			cpuPerK = append(cpuPerK, millis(sl.cpu)/(float64(sl.measured)/1000))
		}
	}
	// CPU time always follows the host factor; throughput and latency only
	// where CPU is what bounds them. Latency quantiles are taken per slice
	// and one slice reported; Samples counts the latencies behind all of them.
	f := median(hosts)
	m.plainDPS, m.tracedDPS = median(rate(m.seg)), median(rate(m.segTraced))
	res.setMedian("host.factor", "ratio", hosts, 1)
	if w.waitBound {
		res.setQuiet("delivered_per_s", "msgs/s", rate(m.seg), 0.75)
		res.setQuiet("latency_p50_ms", "ms", p50, 0.25)
		res.setQuiet("latency_p99_ms", "ms", p99, 0.25)
	} else {
		res.setMedian("delivered_per_s", "msgs/s", rate(m.seg), 1/f)
		res.setMedian("latency_p50_ms", "ms", p50, f)
		res.setMedian("latency_p99_ms", "ms", p99, f)
	}
	for _, name := range []string{"latency_p50_ms", "latency_p99_ms"} {
		v := res.Metrics[name]
		v.Samples = samples
		res.Metrics[name] = v
	}
	res.setMedian("cpu_ms_per_kmsg", "ms", cpuPerK, f)
	res.setMedian("setup_s", "s", setup, f)
	res.setMedian("mem_mb", "MB", memMB, 1)
	m.p50ms = median(p50)
	return nil
}

// printResult writes the human-readable report of one run.
func printResult(res result, names []metricSpec) {
	fmt.Printf("workload %s seed %d: attempted=%d failed=%d fail_share=%g correct=%v (all traffic crosses the host loopback interface or stays in process)\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.FailShare, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	printed := map[string]bool{}
	for _, spec := range slices.Concat(names, reportExtras) {
		v, ok := res.Metrics[spec.Name]
		if !ok || printed[spec.Name] {
			continue
		}
		printed[spec.Name] = true
		extra := ""
		if v.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", v.Samples)
		}
		if v.Raw != 0 {
			extra += fmt.Sprintf("  raw=%.6g", v.Raw)
		}
		if v.Spread != 0 || v.Min != 0 {
			extra += fmt.Sprintf("  min=%.6g spread=%.1f%%", v.Min, 100*v.Spread)
		}
		if len(v.All) > 0 {
			extra += fmt.Sprintf("  %.4g", v.All)
		}
		fmt.Printf("  %-34s %14.6g %-7s%s\n", spec.Name, v.Value, v.Unit, extra)
	}
	if res.Counts != "" {
		fmt.Printf("  counts:\n    %s\n", strings.ReplaceAll(strings.TrimSuffix(res.Counts, "\n"), "\n", "\n    "))
	}
}

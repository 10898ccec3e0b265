package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testOpts runs a workload at about 1/100 of its benchmark size.
func testOpts(t *testing.T, w workloadDef, seed uint64) runOpts {
	secs := 0.1
	if w.live() {
		secs = 0.6
	}
	return runOpts{seed: seed, seconds: secs, scale: 0.01, lifetimes: 1, outDir: t.TempDir()}
}

// checkEndToEnd asserts what every run of every workload must satisfy: its
// checker passed, and every end-to-end metric is a positive number.
func checkEndToEnd(t *testing.T, res result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	line := lastLineOf(res, endToEnd)
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("last line has %d metrics, want %d", len(line.Metrics), len(endToEnd))
	}
	for _, s := range endToEnd {
		if v := line.Metrics[s.Name]; !(v.Value > 0) || v.Unit != s.Unit {
			t.Errorf("%s = %v %q, want a positive number in %s", s.Name, v.Value, v.Unit, s.Unit)
		}
	}
}

// tracedWorkloads are checked by TestTracedRunReportsEveryLayerMetric, whose
// runs carry an untraced part that gets the same checks as here. A udp
// cluster takes 1.6 s to stop, so it is not started more often than needed.
var tracedWorkloads = map[string]bool{"sim-custody": true, "udp-route": true, "tcp-idle": true, "rt-route": true}

// Every workload passes its own checker, and reports every end-to-end
// metric as a positive number.
func TestWorkloadsPassTheirCheckers(t *testing.T) {
	for _, w := range workloads {
		if tracedWorkloads[w.Name] {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			res, _, err := runWorkload(w, testOpts(t, w, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			checkEndToEnd(t, res)
		})
	}
}

// Simulated statistics are a pure function of the seed: byte-identical
// across two runs, different for another seed.
func TestSimCountsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		if w.live() {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			counts := func(seed uint64) string {
				res, _, err := runWorkload(w, testOpts(t, w, seed), nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Counts == "" {
					t.Fatal("no count block")
				}
				return res.Counts
			}
			a, b, c := counts(1), counts(1), counts(2)
			if a != b {
				t.Errorf("same seed, different counts:\n%s\n%s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 gave the same counts:\n%s", a)
			}
		})
	}
}

// A traced run gives every per-layer metric a value, and the ones the
// workload exercises a non-zero one.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	probes := runProbes(nil, 20)
	for _, tc := range []struct {
		workload string
		nonZero  []string
	}{
		{"sim-custody", []string{"sim.steps_per_msg", "sim.kernel_share", "engine.ns_per_step", "engine.retransmits_per_msg",
			"faults.drops_per_msg", "alloc.objects_per_msg", "dtn.transfers_per_accept", "dtn.ns_per_step"}},
		{"udp-route", []string{"netrt.frames_per_msg", "netrt.data_frames_per_msg", "netrt.wire_bytes_per_msg",
			"netrt.ready_ms", "netrt.goroutines", "dgram.packets_per_msg", "engine.cost_msgs_per_msg"}},
		{"tcp-idle", []string{"netrt.hop_sum_ratio", "netrt.heartbeat_frames_per_s"}},
		{"rt-route", []string{"rt.goroutines", "alloc.bytes_per_msg"}},
	} {
		if !tracedWorkloads[tc.workload] {
			t.Fatalf("%s is traced here but not listed in tracedWorkloads", tc.workload)
		}
		t.Run(tc.workload, func(t *testing.T) {
			w, _ := findWorkload(tc.workload)
			o := testOpts(t, w, 1)
			o.trace = true
			sp := newSpanRecorder(w.Name)
			res, m, err := runWorkload(w, o, sp)
			if err != nil {
				t.Fatal(err)
			}
			checkEndToEnd(t, res)
			layerMetrics(w, &res, m, probes)
			line := lastLineOf(res, perLayer)
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("last line has %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			for name, v := range line.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			for _, name := range tc.nonZero {
				if line.Metrics[name].Value == 0 {
					t.Errorf("%s is 0 on %s", name, tc.workload)
				}
			}
			tf := sp.finish()
			if len(tf.Spans) == 0 || len(tf.Counts) == 0 {
				t.Errorf("traced run recorded %d spans and %d obs event kinds", len(tf.Spans), len(tf.Counts))
			}
			for _, s := range tf.Spans {
				if s.EndNS < s.StartNS || s.SelfNS > s.EndNS-s.StartNS {
					t.Errorf("span %+v is inconsistent", s)
				}
			}
		})
	}
	// The isolated probes fill every metric that is not workload-derived.
	for _, name := range []string{"workload.gen_ns_per_op", "sim.single.schedule_step_ns", "sim.sharded.schedule_step_ns",
		"engine.move_ns", "obs.record_ns", "execq.hop_ns", "execq.contended_hop_ns", "rt.hop_us_p50",
		"wire.encode_data_ns", "wire.decode_data_ns", "wire.data_frame_bytes", "wire.stream_frames_per_s",
		"dgram.echo_us_p50", "tcp.echo_us_p50", "dgram.stream_mb_per_s", "dgram.frag_mb_per_s", "dgram.dial_ms",
		"netrt.hop_us_p50.tcp", "netrt.hop_us_p50.udp", "dtn.store_put_ns", "dtn.store_formh_ns",
		"dtn.summary_encode_ns", "dtn.summary_decode_ns", "dtn.summary_bytes"} {
		if !(probes[name].Value > 0) {
			t.Errorf("probe metric %s = %v", name, probes[name].Value)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the binary
// prints, within the limits the acceptance harness sets.
func TestDeclarationMatchesBinary(t *testing.T) {
	var decl struct {
		declaration
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, binary has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: declared %q (%q), binary has %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared []declaredMetric, specs []metricSpec, bounded bool) {
		if len(declared) != len(specs) {
			t.Fatalf("%s: %d metrics declared, binary prints %d", kind, len(declared), len(specs))
		}
		for i, s := range specs {
			d := declared[i]
			if d.Name != s.Name || d.Unit != s.Unit {
				t.Errorf("%s %d: declared %s [%s], binary prints %s [%s]", kind, i, d.Name, d.Unit, s.Name, s.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
				t.Errorf("%s: bound = %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name    string
		a, b    []float64
		lower   bool
		verdict string
	}{
		{"same", steady, []float64{101, 100, 99, 100, 101}, true, verdictOK},
		{"slower beyond the bound", steady, []float64{115, 116, 114, 115, 117}, true, verdictRegressed},
		{"higher is better and it fell", steady, []float64{85, 86, 84, 85, 87}, false, verdictRegressed},
		{"higher is better and it rose", steady, []float64{115, 116, 114, 115, 117}, false, verdictOK},
		{"too noisy to tell", steady, []float64{80, 125, 95, 104, 70}, true, verdictUnresolved},
		{"noisy but every run better", []float64{100, 130, 160, 115, 145}, []float64{50, 60, 70, 55, 65}, true, verdictOK},
	} {
		if got, _ := judge(tc.a, tc.b, tc.lower, 0.10, false); got != tc.verdict {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.verdict)
		}
	}
	// setup_s is held to its bound by its median only, as the harness does.
	noisy := []float64{80, 125, 95, 104, 70}
	if got, _ := judge(steady, noisy, true, 0.10, true); got != verdictOK {
		t.Errorf("spread-exempt, medians agree: verdict %s, want %s", got, verdictOK)
	}
	if got, _ := judge(steady, []float64{115, 160, 114, 90, 117}, true, 0.10, true); got != verdictRegressed {
		t.Errorf("spread-exempt, median beyond the bound: verdict %s, want %s", got, verdictRegressed)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the rule
// the acceptance harness measures spreads by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{9, 1, 4})
	if q1 != 1 || q3 != 9 {
		t.Errorf("quartiles(9,1,4) = %v, %v; Python gives 1, 9", q1, q3)
	}
}

// The wedge dump carries goroutine stacks, which is what turns "it hung"
// into a place in the code.
func TestWedgeDump(t *testing.T) {
	path := dumpWedge(t.TempDir(), "test", nil)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "goroutine") || !strings.Contains(string(b), "TestWedgeDump") {
		t.Errorf("dump has no goroutine stacks:\n%.400s", b)
	}
}

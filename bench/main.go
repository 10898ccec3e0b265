// Command bench is the repository's one benchmark: seven workloads over
// the four substrates (sim, rt, netrt/tcp, netrt/udp), measured only from
// outside, through the public functions of each layer. See README.md.
//
//	go run ./bench -seed 1                  every workload, end-to-end metrics
//	go run ./bench -workload tcp-route      one workload
//	go run ./bench -layers                  every workload traced, per-layer metrics
//	go run ./bench -trace bench/out/trace.json
//	go run ./bench -compare A.json B.json   verdict per workload and metric
//
// The acceptance harness drives one workload per process:
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

const outDir = "bench/out"

// progress counts operations issued and settled (delivered, or reported
// failed) across the whole process, so the watchdog can say how many were
// cut off.
var progress struct {
	attempted, settled atomic.Int64
}

// currentCluster is the live cluster being measured, for the watchdog.
var currentCluster atomic.Pointer[liveCluster]

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all, each run in a child process)")
		seed         = flag.Uint64("seed", 1, "seed of the op streams")
		secs         = flag.Float64("seconds", 12, "measured time per workload run")
		trace        = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a path: trace every workload and write all spans there")
		layers       = flag.Bool("layers", false, "run every workload traced and print the per-layer metrics")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		reps         = flag.Int("reps", 1, "runs per workload when running all (a result set for -compare wants at least 5)")
		out          = flag.String("out", filepath.Join(outDir, "results.json"), "where running all workloads writes its result set")
		spec         = flag.String("spec", "BENCHMARK.json", "benchmark declaration -compare takes its bounds from")
		resultFile   = flag.String("result-file", "", "also write the full result of a -workload run here (used by the parent process)")
		watchdog     = flag.Duration("watchdog", 0, "per-workload deadline (default 4x the expected run, at most 170s)")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *spec))
	case *workloadName != "" && *reps == 1:
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal("unknown workload %q", *workloadName)
		}
		os.Exit(runOne(w, runOpts{seed: *seed, seconds: *secs, trace: *trace != "0", scale: 1, lifetimes: liveLifetimes, outDir: outDir}, *resultFile, *watchdog))
	default:
		traced := *layers || *trace != "0"
		spanFile := ""
		if *trace != "0" && *trace != "1" {
			spanFile = *trace
		}
		which := workloads
		if w, ok := findWorkload(*workloadName); ok {
			which = []workloadDef{w}
		} else if *workloadName != "" {
			fatal("unknown workload %q", *workloadName)
		}
		os.Exit(runAll(which, *seed, *secs, *reps, traced, *out, spanFile))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// lastLine is the one JSON object the acceptance harness reads.
type lastLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]valueAndUnit `json:"metrics"`
}

type valueAndUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the report, writes the full result for the parent, and
// prints the last line: every metric of specs, and only those.
func emit(res result, specs []metricSpec, resultFile string) {
	printResult(res, specs)
	if resultFile != "" {
		if err := writeJSONFile(resultFile, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	b, _ := json.Marshal(lastLineOf(res, specs))
	fmt.Printf("%s\n", b)
}

func lastLineOf(res result, specs []metricSpec) lastLine {
	line := lastLine{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]valueAndUnit{}}
	for _, s := range specs {
		line.Metrics[s.Name] = valueAndUnit{res.Metrics[s.Name].Value, s.Unit}
	}
	return line
}

// runOne runs one workload in this process and returns the exit code.
func runOne(w workloadDef, o runOpts, resultFile string, deadline time.Duration) int {
	specs := endToEnd
	var sp *spanRecorder
	if o.trace {
		specs = perLayer
		sp = newSpanRecorder(w.Name)
	}
	if deadline == 0 {
		deadline = min(4*(time.Duration(o.seconds*float64(time.Second))+10*time.Second), 170*time.Second)
	}
	// Wedges are this program's known bug class, and a benchmark that hangs
	// on one reports nothing: past the deadline, dump state, report the
	// unfinished work as failed and end the process.
	watchdog := time.AfterFunc(deadline, func() {
		where := dumpWedge(o.outDir, w.Name, currentCluster.Load())
		cut := progress.attempted.Load() - progress.settled.Load()
		res := result{Workload: w.Name, Seed: o.seed, Metrics: map[string]metricValue{},
			Attempted: progress.attempted.Load(), Failed: max(cut, 1)}
		res.problem("watchdog: no result after %v, %d operations cut off; state dumped to %s", deadline, cut, where)
		emit(res, specs, resultFile)
		os.Exit(1)
	})
	defer watchdog.Stop()

	fmt.Printf("bench: %s, GOMAXPROCS=%d, %s, seed %d, %.3gs measured\n", w.Name, runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds)
	res, m, err := runWorkload(w, o, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if o.trace {
		printResult(res, endToEnd)
		layerMetrics(w, &res, m, runProbes(sp, 1))
		tf := sp.finish()
		path := filepath.Join(o.outDir, "trace-"+w.Name+".json")
		if err := writeJSONFile(path, tf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	emit(res, specs, resultFile)
	if !res.Correct {
		return 1
	}
	return 0
}

// resultSet is what running every workload writes and -compare reads.
type resultSet struct {
	Seed    uint64              `json:"seed"`
	Seconds float64             `json:"seconds"`
	Host    string              `json:"host"`
	Runs    map[string][]result `json:"runs"` // workload → one result per rep
}

// runAll runs the given workloads reps times, each run in a fresh child process
// of this same binary, so peak RSS, GC state and leftover goroutines never
// leak from one workload into the next.
func runAll(which []workloadDef, seed uint64, secs float64, reps int, traced bool, out, spanFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	set := resultSet{Seed: seed, Seconds: secs, Runs: map[string][]result{},
		Host: fmt.Sprintf("%s/%s nproc=%d %s loopback", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())}
	specs := endToEnd
	traceArg := "0"
	if traced {
		specs, traceArg = perLayer, "1"
	}
	code := 0
	merged := map[string]traceFile{} // workload → its traced run
	for _, w := range which {
		for r := 0; r < reps; r++ {
			rf := filepath.Join(outDir, fmt.Sprintf("result-%s.json", w.Name))
			_ = os.Remove(rf)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+uint64(r)),
				"-seconds", fmt.Sprint(secs), "-trace", traceArg, "-result-file", rf)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// Everything but the child's last line is its report.
			body := bytes.TrimRight(stdout.Bytes(), "\n")
			if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
				os.Stdout.Write(body[:i+1])
			}
			var res result
			if readJSON(rf, &res) != nil {
				res = result{Workload: w.Name, Seed: seed + uint64(r), Attempted: 1, Failed: 1, FailShare: 1,
					Problems: []string{fmt.Sprintf("child left no result (%v)", runErr)}}
				fmt.Printf("workload %s: %s\n", w.Name, res.Problems[0])
			}
			if runErr != nil || !res.Correct {
				code = 1
			}
			set.Runs[w.Name] = append(set.Runs[w.Name], res)
			if spanFile != "" {
				var tf traceFile
				if readJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), &tf) == nil {
					merged[w.Name] = tf
				}
			}
		}
	}
	printSummary(set, specs)
	if err := writeJSONFile(out, set); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("result set written to %s\n", out)
	if spanFile != "" {
		if err := writeJSONFile(spanFile, merged); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("spans of %d workloads written to %s\n", len(merged), spanFile)
	}
	return code
}

// printSummary prints one row per workload and metric: the median over the
// set's reps, with min and spread when there is more than one.
func printSummary(set resultSet, specs []metricSpec) {
	fmt.Printf("\n%s, seed %d, %gs per run\n", set.Host, set.Seed, set.Seconds)
	for _, w := range workloads {
		runs := set.Runs[w.Name]
		if len(runs) == 0 {
			continue
		}
		fmt.Printf("%s (%d runs)\n", w.Name, len(runs))
		fmt.Printf("  %-34s %14.6g %-7s\n", "fail_share", median(failShares(runs)), "ratio")
		seen := map[string]bool{}
		for _, s := range slices.Concat(specs, reportExtras) {
			v := metricSeries(runs, s.Name)
			if len(v) == 0 || seen[s.Name] {
				continue
			}
			seen[s.Name] = true
			line := fmt.Sprintf("  %-34s %14.6g %-7s", s.Name, median(v), s.Unit)
			if len(v) > 1 {
				line += fmt.Sprintf(" min=%.6g spread=%.1f%%", minOf(v), 100*spread(v))
			} else if n := runs[0].Metrics[s.Name].Samples; n > 0 {
				line += fmt.Sprintf(" n=%d", n)
			}
			fmt.Println(line)
		}
	}
}

// metricSeries collects one metric's value from every run that has it.
func metricSeries(runs []result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

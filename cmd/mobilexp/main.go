// Command mobilexp regenerates the paper's evaluation tables (experiments
// E1–E11 and ablations A1–A2; see DESIGN.md for the index).
//
// Usage:
//
//	mobilexp [-seed N] [-id E4] [-markdown] [-o FILE] [-parallel W]
//	         [-verify N] [-trace FILE]
//	         [-drop P] [-dup P] [-reorder P] [-flap MSS:FROM:UNTIL,...]
//	         [-crash MSS:AT:RESTART,...] [-faultseed N]
//
// Without -id every experiment runs in index order, generated on up to
// -parallel worker goroutines (default: one per CPU); the tables are
// byte-identical to a sequential run regardless of worker count. With
// -markdown the output is GitHub-flavoured markdown (the format
// EXPERIMENTS.md embeds).
//
// -trace FILE captures the full observability event stream (internal/obs)
// of the run as JSONL, inspectable and diffable with cmd/mobiletrace.
// Tracing forces sequential generation so the captured stream is a pure
// function of the seed: two runs with the same seed and flags produce
// byte-identical trace files.
//
// The fault flags build a deterministic fault plan (see internal/faults)
// and install it process-wide, so every experiment regenerates under the
// same unreliable-wireless weather — the engine's ARQ sublayer preserves
// delivery guarantees, so the protocol outcomes still hold — and the F1
// table of fault/recovery counters is appended to the suite. Without fault
// flags no plan is installed and the output is byte-identical to earlier
// releases.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"mobiledist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobilexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobilexp", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "simulation seed")
		id       = fs.String("id", "", "run a single experiment (E1..E11, A1, A2)")
		markdown = fs.Bool("markdown", false, "emit GitHub-flavoured markdown")
		outPath  = fs.String("o", "", "write output to FILE instead of stdout")
		verify   = fs.Int("verify", 0, "instead of tables, sweep every experiment across N seeds and report whether paper == measured held")
		parallel = fs.Int("parallel", runtime.NumCPU(), "worker goroutines for the full suite (output is identical for any value)")

		tracePath = fs.String("trace", "", "capture the observability event stream to FILE as JSONL (forces sequential generation)")

		drop      = fs.Float64("drop", 0, "wireless drop probability per transmission, both directions [0,1]")
		dup       = fs.Float64("dup", 0, "wireless duplicate probability per transmission, both directions [0,1]")
		reorder   = fs.Float64("reorder", 0, "wireless reorder probability per transmission, both directions [0,1]")
		flaps     = fs.String("flap", "", "cell outages as MSS:FROM:UNTIL[,...] (darkens that cell's downlinks for the window)")
		crashes   = fs.String("crash", "", "station failures as MSS:AT:RESTART[,...] (RESTART 0 = never restarts)")
		faultseed = fs.Uint64("faultseed", 1, "seed for the fault plan's probabilistic decisions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	plan, err := buildFaultPlan(*drop, *dup, *reorder, *flaps, *crashes, *faultseed)
	if err != nil {
		return err
	}
	if plan != nil {
		// Loss, duplication, reordering and flaps are absorbed by the
		// engine's ARQ sublayer, so every experiment (and the -verify
		// sweep) still holds under them. A crashed station, however, is
		// outside most algorithms' failure model: only F1 arms token
		// recovery, so crash plans are restricted to single-experiment
		// runs.
		if len(plan.Crashes) > 0 && *id == "" {
			return fmt.Errorf("-crash requires -id (try -id F1: the other experiments' algorithms assume live stations)")
		}
		defer mobiledist.SetDefaultFaultPlan(mobiledist.DefaultFaultPlan())
		mobiledist.SetDefaultFaultPlan(plan)
	}

	var tracer *mobiledist.Tracer
	if *tracePath != "" {
		tracer = mobiledist.NewTracer(0).WithMetrics(mobiledist.NewTraceMetrics())
		mobiledist.SetDefaultTracer(tracer)
		defer mobiledist.SetDefaultTracer(nil)
	}

	var tables []mobiledist.ExperimentTable
	switch {
	case *verify > 0:
		tables = []mobiledist.ExperimentTable{mobiledist.VerifyExperiments(*verify)}
	case *id != "":
		t, ok := mobiledist.ExperimentByID(*id, *seed)
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", *id, strings.Join(mobiledist.ExperimentIDs(), ", "))
		}
		tables = []mobiledist.ExperimentTable{t}
	default:
		workers := *parallel
		if tracer != nil {
			// A shared tracer interleaves events from concurrently-generated
			// experiments nondeterministically, so tracing runs on one worker.
			workers = 1
		}
		tables = mobiledist.AllExperimentsParallel(*seed, workers)
		if plan != nil {
			// Under a fault plan the suite gains the fault/recovery counter
			// table; fault-free runs stay byte-identical to earlier releases.
			f1, _ := mobiledist.ExperimentByID("F1", *seed)
			tables = append(tables, f1)
		}
	}

	emit := func(w io.Writer) error { return writeTables(w, tables, *markdown) }
	if *outPath == "" {
		err = emit(stdout)
	} else {
		err = writeFile(*outPath, emit)
	}
	if err != nil {
		return err
	}
	if tracer != nil {
		// The captured event stream, as JSONL.
		return writeFile(*tracePath, tracer.Snapshot().WriteJSONL)
	}
	return nil
}

func writeTables(out io.Writer, tables []mobiledist.ExperimentTable, markdown bool) error {
	for _, t := range tables {
		text := t.Format()
		if markdown {
			text = t.Markdown()
		}
		if _, err := fmt.Fprintln(out, text); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it through write; a failed write or a
// failed Close (a short write surfacing late) is the caller's error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildFaultPlan turns the fault flags into a plan, or nil when every flag
// is at its fault-free default. Loss rates apply to both wireless channel
// classes; flap and crash windows are virtual-time ticks.
func buildFaultPlan(drop, dup, reorder float64, flaps, crashes string, seed uint64) (*mobiledist.FaultPlan, error) {
	loss := mobiledist.LinkFaults{Drop: drop, Duplicate: dup, Reorder: reorder}
	plan := mobiledist.FaultPlan{Seed: seed, Down: loss, Up: loss}
	for _, spec := range splitSpecs(flaps) {
		v, err := parseTriple("flap", spec)
		if err != nil {
			return nil, err
		}
		plan.Flaps = append(plan.Flaps, mobiledist.Flap{
			MSS:   mobiledist.MSSID(v[0]),
			From:  mobiledist.Time(v[1]),
			Until: mobiledist.Time(v[2]),
		})
	}
	for _, spec := range splitSpecs(crashes) {
		v, err := parseTriple("crash", spec)
		if err != nil {
			return nil, err
		}
		plan.Crashes = append(plan.Crashes, mobiledist.Crash{
			MSS:       mobiledist.MSSID(v[0]),
			At:        mobiledist.Time(v[1]),
			RestartAt: mobiledist.Time(v[2]),
		})
	}
	if plan.Empty() {
		return nil, nil
	}
	return &plan, nil
}

func splitSpecs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// parseTriple parses "a:b:c" into three non-negative integers.
func parseTriple(flagName, spec string) ([3]int64, error) {
	var out [3]int64
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return out, fmt.Errorf("-%s %q: want three colon-separated integers", flagName, spec)
	}
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v < 0 {
			return out, fmt.Errorf("-%s %q: bad field %q (want a non-negative integer)", flagName, spec, p)
		}
		out[i] = v
	}
	return out, nil
}

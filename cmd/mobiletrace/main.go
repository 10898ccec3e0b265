// Command mobiletrace inspects observability traces: the JSONL files
// cmd/mobilexp's -trace flag writes (obs.Trace.WriteJSONL).
//
// Usage:
//
//	mobiletrace diff [-ignore-time] A B
//	mobiletrace show [-kinds leave,join,...] [-no-time] FILE
//	mobiletrace spacetime [-limit N] FILE
//
// diff compares two traces event by event and exits 1 when they differ —
// the determinism check: two runs of the same seeded simulation must
// produce byte-identical traces, and a sim-vs-live pair must agree on the
// timeless event sequence (-ignore-time strips the clocks, which differ
// across substrates).
//
// show prints the event stream as canonical lines, optionally filtered to
// the named kinds.
//
// spacetime renders a text space-time (Lamport) diagram: one lane per
// station and per mobile host, one row per event, transmissions drawn as
// arrows between lanes. It needs a trace with a single recorded topology.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobiledist/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "mobiletrace: want a subcommand: diff, show, spacetime")
		return 2
	}
	var err error
	switch args[0] {
	case "diff":
		var differs bool
		differs, err = runDiff(args[1:], stdout)
		if err == nil && differs {
			return 1
		}
	case "show":
		err = runShow(args[1:], stdout)
	case "spacetime":
		err = runSpacetime(args[1:], stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want diff, show, spacetime)", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "mobiletrace:", err)
		return 2
	}
	return 0
}

// loadTrace reads a JSONL trace file.
func loadTrace(path string) (obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.Trace{}, err
	}
	defer f.Close()
	return obs.ReadJSONL(f)
}

const maxShownDiffs = 20

// runDiff compares two traces; differs reports whether they diverge.
func runDiff(args []string, out io.Writer) (differs bool, err error) {
	fs := flag.NewFlagSet("mobiletrace diff", flag.ContinueOnError)
	ignoreTime := fs.Bool("ignore-time", false, "compare events without timestamps (for sim-vs-live traces, whose clocks differ)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff wants exactly two trace files")
	}
	a, err := loadTrace(fs.Arg(0))
	if err != nil {
		return false, fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	b, err := loadTrace(fs.Arg(1))
	if err != nil {
		return false, fmt.Errorf("%s: %w", fs.Arg(1), err)
	}

	var diffs int
	report := func(format, va, vb string) {
		diffs++
		if diffs <= maxShownDiffs {
			fmt.Fprintf(out, "  %s: -%s\n  %*s  +%s\n", format, va, len(format), "", vb)
		}
	}
	if a.M != b.M || a.N != b.N {
		report("topology", fmt.Sprintf("M=%d N=%d", a.M, a.N), fmt.Sprintf("M=%d N=%d", b.M, b.N))
	}
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	withTime := !*ignoreTime
	for i := 0; i < n; i++ {
		la, lb := a.Events[i].Line(withTime), b.Events[i].Line(withTime)
		if la != lb {
			report(fmt.Sprintf("event %d", i), la, lb)
		}
	}
	for i := n; i < len(a.Events); i++ {
		report(fmt.Sprintf("event %d", i), a.Events[i].Line(withTime), "(missing)")
	}
	for i := n; i < len(b.Events); i++ {
		report(fmt.Sprintf("event %d", i), "(missing)", b.Events[i].Line(withTime))
	}

	if diffs == 0 {
		fmt.Fprintf(out, "traces identical: %d events\n", len(a.Events))
		return false, nil
	}
	if diffs > maxShownDiffs {
		fmt.Fprintf(out, "  ... %d more\n", diffs-maxShownDiffs)
	}
	fmt.Fprintf(out, "traces differ: %d differences (%d vs %d events)\n", diffs, len(a.Events), len(b.Events))
	return true, nil
}

func runShow(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobiletrace show", flag.ContinueOnError)
	kinds := fs.String("kinds", "", "comma-separated event kinds to keep (default: all)")
	noTime := fs.Bool("no-time", false, "omit timestamps (the cross-substrate comparison form)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show wants exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	events := tr.Events
	if *kinds != "" {
		var keep []obs.EventKind
		for _, name := range strings.Split(*kinds, ",") {
			k, ok := obs.KindFromString(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown event kind %q", name)
			}
			keep = append(keep, k)
		}
		events = obs.Filter(events, obs.KindFilter(keep...))
	}
	fmt.Fprintf(out, "# trace M=%d N=%d events=%d shown=%d\n", tr.M, tr.N, len(tr.Events), len(events))
	for _, line := range obs.Lines(events, !*noTime) {
		fmt.Fprintln(out, line)
	}
	return nil
}

func runSpacetime(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobiletrace spacetime", flag.ContinueOnError)
	limit := fs.Int("limit", 200, "maximum rows to render (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("spacetime wants exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	return renderSpacetime(tr, *limit, out)
}

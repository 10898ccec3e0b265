package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declaration is the part of BENCHMARK.json the benchmark itself reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares B's runs with A's. worse is how much worse B's median is
// than A's, as a share of A's median, in the metric's own direction.
// Beyond the bound that is a regression. Within it, the metric still only
// counts as unchanged if the run-to-run spread of both sets is within the
// bound too — or if every run of B reads better than every run of A.
// spreadExempt skips that second test: the acceptance harness holds every
// metric's median to its bound but does not hold setup_s's spread to it (a
// run has three set-ups of a few tens of milliseconds to take a median of),
// and this tool applies the harness's rule.
func judge(a, b []float64, lowerIsBetter bool, bound float64, spreadExempt bool) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	worse = (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictRegressed, worse
	}
	if !spreadExempt && max(spread(a), spread(b)) > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (lowerIsBetter && x >= y) || (!lowerIsBetter && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return verdictUnresolved, worse
		}
	}
	return verdictOK, worse
}

// failShareBound is the absolute amount fail_share may rise: nothing on
// the simulator, where every run repeats exactly, one op in a thousand on
// live substrates.
func failShareBound(w workloadDef) float64 {
	if w.live() {
		return 0.001
	}
	return 0
}

// runCompare prints, per workload and end-to-end metric, both medians, B's
// as a ratio of A's, both spreads and a verdict, using the bounds declared
// in the benchmark's declaration file. It returns 1 if anything regressed
// or could not be resolved.
func runCompare(pathA, pathB, specPath string) int {
	var a, b resultSet
	var decl declaration
	for path, v := range map[string]any{pathA: &a, pathB: &b, specPath: &decl} {
		if err := readJSON(path, v); err != nil {
			fatal("%v", err)
		}
	}
	fmt.Printf("A = %s (%s)\nB = %s (%s)\nratio = B's median / A's median; spread = interquartile distance / median\n", pathA, a.Host, pathB, b.Host)
	bad := 0
	for _, w := range workloads {
		ra, rb := a.Runs[w.Name], b.Runs[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%s: missing from a set (A has %d runs, B has %d)\n", w.Name, len(ra), len(rb))
			bad++
			continue
		}
		fmt.Printf("%s (A %d runs, B %d runs)\n", w.Name, len(ra), len(rb))
		fa, fb := failShares(ra), failShares(rb)
		verdict := verdictOK
		if median(fb)-median(fa) > failShareBound(w) {
			verdict = verdictRegressed
			bad++
		}
		fmt.Printf("  %-18s A=%-12.6g B=%-12.6g bound=+%g (absolute)  %s\n", "fail_share", median(fa), median(fb), failShareBound(w), verdict)
		for _, d := range decl.EndToEnd {
			va, vb := metricSeries(ra, d.Name), metricSeries(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(va, vb, d.Better == "lower", d.Bound, d.Name == "setup_s")
			if verdict != verdictOK {
				bad++
			}
			fmt.Printf("  %-18s A=%-12.6g B=%-12.6g ratio=%.3fx of A  worse by %+.1f%% (bound %.0f%%)  spread A %.1f%% B %.1f%%  %s\n",
				d.Name, median(va), median(vb), median(vb)/median(va), 100*worse, 100*d.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
		// Per-layer metrics carry no bound: where both sets have one (CPU per
		// message always, the rest in traced sets) it is shown, not judged.
		for _, d := range decl.PerLayer {
			va, vb := metricSeries(ra, d.Name), metricSeries(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
				continue
			}
			fmt.Printf("  %-18s A=%-12.6g B=%-12.6g ratio=%.3fx of A  spread A %.1f%% B %.1f%%  not judged\n",
				d.Name, median(va), median(vb), median(vb)/median(va), 100*spread(va), 100*spread(vb))
		}
		if !w.live() {
			// Simulated statistics are a pure function of the seed: between
			// two sets of one program they must not differ at all.
			same, compared := true, 0
			for _, x := range ra {
				for _, y := range rb {
					if x.Seed == y.Seed {
						compared++
						same = same && x.Counts == y.Counts
					}
				}
			}
			switch {
			case compared == 0:
				fmt.Println("  counts: no seed in common")
			case same:
				fmt.Printf("  counts: identical on %d seed pairs\n", compared)
			default:
				fmt.Println("  counts: DIFFER between the sets (expected only if the program's behaviour changed)")
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d workload/metric pairs regressed or unresolved\n", bad)
		return 1
	}
	fmt.Println("no end-to-end metric regressed, none unresolved")
	return 0
}

func failShares(runs []result) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.FailShare)
	}
	return v
}

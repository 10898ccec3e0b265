package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobiledist"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden.md from the current output")

// TestTablesGolden is the "experiment tables byte-identical" gate: the full
// suite's markdown must equal the checked-in golden file. A change that
// means to alter protocol behaviour regenerates it with
// `go test ./cmd/mobilexp -run TestTablesGolden -update` and says why.
func TestTablesGolden(t *testing.T) {
	const golden = "testdata/tables.golden.md"
	var out strings.Builder
	if err := run([]string{"-markdown"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tables differ from %s at line %d (%d vs %d lines):\n got: %s\nwant: %s", golden, i+1, len(got), len(wantLines), g, w)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "E10", "-seed", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "E10") || !strings.Contains(text, "location view") {
		t.Errorf("output missing expected content:\n%s", text)
	}
}

func TestRunMarkdown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "A1", "-markdown"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "### A1") {
		t.Errorf("markdown output malformed:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "E99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.txt")
	var out strings.Builder
	if err := run([]string{"-id", "E10", "-o", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !strings.Contains(string(data), "E10") {
		t.Errorf("file content missing table:\n%s", data)
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty when -o used: %q", out.String())
	}

	// A file that opens but cannot take the bytes must fail the run, not
	// report success on a short write.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	if err := run([]string{"-id", "E10", "-o", "/dev/full"}, &out); err == nil {
		t.Error("run reported success writing tables to a full device")
	}
}

func TestRunBadFlag(t *testing.T) {
	// The last three are flags of the retired timing modes; the benchmark
	// is `go run ./bench` and nothing here accepts them any more.
	for _, arg := range []string{"-definitely-not-a-flag", "-scale", "-bench-json=x.json", "-check-bench=x.json"} {
		var out strings.Builder
		if err := run([]string{arg}, &out); err == nil {
			t.Errorf("bad flag %s accepted", arg)
		}
	}
}

func TestRunNoFaultFlagsIsByteIdentical(t *testing.T) {
	// A faulty run first: its plan must not outlive it, or the fault-free
	// runs below would regenerate under its weather.
	var lossy strings.Builder
	if err := run([]string{"-id", "E10", "-drop", "0.3"}, &lossy); err != nil {
		t.Fatalf("run -drop: %v", err)
	}
	var plain, zeroed strings.Builder
	if err := run([]string{"-seed", "3"}, &plain); err != nil {
		t.Fatalf("run: %v", err)
	}
	// All-zero fault flags build no plan, so the suite must not change at
	// all: same tables, same bytes, no F1 appended.
	if err := run([]string{"-seed", "3", "-drop", "0", "-dup", "0", "-reorder", "0", "-faultseed", "9"}, &zeroed); err != nil {
		t.Fatalf("run with zero fault flags: %v", err)
	}
	if plain.String() != zeroed.String() {
		t.Error("zero-valued fault flags changed the suite output")
	}
	if strings.Contains(plain.String(), "F1 —") {
		t.Error("fault-free suite contains the F1 fault table")
	}
	if mobiledist.DefaultFaultPlan() != nil {
		t.Error("fault-free run installed a default fault plan")
	}
}

func TestRunLossPlanAppendsF1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "1", "-drop", "0.3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "F1 —") {
		t.Errorf("suite under loss is missing the F1 table:\n%s", text)
	}
	if !strings.Contains(text, "drop=0.30") {
		t.Errorf("F1 note does not describe the plan:\n%s", text)
	}
}

func TestRunCrashRequiresSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-crash", "2:1:2500"}, &out); err == nil {
		t.Error("crash plan accepted for the full suite")
	}
	out.Reset()
	if err := run([]string{"-id", "F1", "-crash", "2:1:2500"}, &out); err != nil {
		t.Fatalf("run -id F1 -crash: %v", err)
	}
	if !strings.Contains(out.String(), "token recovery armed") {
		t.Errorf("F1 under a crash plan did not arm recovery:\n%s", out.String())
	}
}

func TestRunTraceIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	var out strings.Builder
	if err := run([]string{"-id", "E10", "-seed", "4", "-trace", a}, &out); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if mobiledist.DefaultTracer() != nil {
		t.Error("run left the default tracer installed")
	}
	if err := run([]string{"-id", "E10", "-seed", "4", "-trace", b}, &out); err != nil {
		t.Fatalf("second run -trace: %v", err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(da) == 0 {
		t.Fatal("trace file is empty")
	}
	if !strings.HasPrefix(string(da), `{"trace":"mobiledist","v":1`) {
		t.Errorf("trace header malformed: %.80s", da)
	}
	if string(da) != string(db) {
		t.Error("two seeded runs produced different trace files")
	}
}

func TestBuildFaultPlan(t *testing.T) {
	if p, err := buildFaultPlan(0, 0, 0, "", "", 7); err != nil || p != nil {
		t.Errorf("all-default flags: got plan %v, err %v; want nil, nil", p, err)
	}
	p, err := buildFaultPlan(0.1, 0.2, 0, "1:50:400,2:10:20", "3:5:0", 7)
	if err != nil {
		t.Fatalf("buildFaultPlan: %v", err)
	}
	if p.Seed != 7 || p.Down.Drop != 0.1 || p.Up.Duplicate != 0.2 {
		t.Errorf("loss rates not applied to both directions: %+v", p)
	}
	if len(p.Flaps) != 2 || p.Flaps[1].MSS != 2 || p.Flaps[1].From != 10 || p.Flaps[1].Until != 20 {
		t.Errorf("flap specs misparsed: %+v", p.Flaps)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (mobiledist.Crash{MSS: 3, At: 5, RestartAt: 0}) {
		t.Errorf("crash specs misparsed: %+v", p.Crashes)
	}
	for _, bad := range []string{"1:2", "a:b:c", "1:-2:3", "1:2:3:4"} {
		if _, err := buildFaultPlan(0, 0, 0, bad, "", 1); err == nil {
			t.Errorf("flap spec %q accepted", bad)
		}
	}
}

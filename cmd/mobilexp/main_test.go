package main

import (
	"encoding/json"
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
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// resetFaultPlan restores the process-wide fault-free default after a test
// that runs with fault flags (run installs the plan globally).
func resetFaultPlan(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { mobiledist.SetDefaultFaultPlan(nil) })
}

func TestRunNoFaultFlagsIsByteIdentical(t *testing.T) {
	resetFaultPlan(t)
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
	resetFaultPlan(t)
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
	resetFaultPlan(t)
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

func TestRunBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-id", "E10", "-bench-json", path}, &out); err != nil {
		t.Fatalf("run -bench-json: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("bench snapshot is not valid JSON: %v\n%s", err, data)
	}
	if snap.Schema != benchSchemaV2 {
		t.Errorf("schema = %q, want %s", snap.Schema, benchSchemaV2)
	}
	if len(snap.Experiments) != 1 || snap.Experiments[0].ID != "E10" || snap.Experiments[0].Millis <= 0 {
		t.Errorf("experiment timings malformed: %+v", snap.Experiments)
	}
	if snap.GOOS == "" || snap.GoVersion == "" {
		t.Errorf("platform fields missing: %+v", snap)
	}
	if snap.CPUs < 1 {
		t.Errorf("cpus = %d, want >= 1", snap.CPUs)
	}
	// The snapshot must pass its own validator (the -check-bench path).
	if err := checkBenchFile(path); err != nil {
		t.Errorf("checkBenchFile rejected a fresh snapshot: %v", err)
	}
	var check strings.Builder
	if err := run([]string{"-check-bench", path}, &check); err != nil {
		t.Fatalf("run -check-bench: %v", err)
	}
	if !strings.Contains(check.String(), "ok") {
		t.Errorf("-check-bench output missing ok: %q", check.String())
	}
}

// writeTestSnapshot marshals snap to a temp file and returns the path.
func writeTestSnapshot(t *testing.T, snap benchSnapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.json")
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckBenchFileRejectsMalformed(t *testing.T) {
	valid := benchSnapshot{
		Schema: benchSchemaV2, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24",
		TotalMillis: 5,
		Experiments: []benchExperiment{{ID: "E1", Title: "t", Millis: 5}},
	}
	if err := checkBenchFile(writeTestSnapshot(t, valid)); err != nil {
		t.Errorf("valid v2 snapshot rejected: %v", err)
	}

	v1 := valid
	v1.Schema = benchSchemaV1
	if err := checkBenchFile(writeTestSnapshot(t, v1)); err != nil {
		t.Errorf("valid v1 snapshot rejected: %v", err)
	}

	cases := map[string]func(*benchSnapshot){
		"unknown schema":     func(s *benchSnapshot) { s.Schema = "mobiledist-bench/v9" },
		"missing platform":   func(s *benchSnapshot) { s.GOOS = "" },
		"no results":         func(s *benchSnapshot) { s.Experiments = nil; s.TotalMillis = 0 },
		"empty id":           func(s *benchSnapshot) { s.Experiments[0].ID = "" },
		"total mismatch":     func(s *benchSnapshot) { s.TotalMillis = 99 },
		"scale needs v2":     func(s *benchSnapshot) { s.Schema = benchSchemaV1; s.Scale = []benchScaleRun{{}} },
		"zero-dim scale run": func(s *benchSnapshot) { s.Scale = []benchScaleRun{{Kind: "route"}} },
	}
	for name, mutate := range cases {
		snap := valid
		snap.Experiments = []benchExperiment{valid.Experiments[0]}
		mutate(&snap)
		if err := checkBenchFile(writeTestSnapshot(t, snap)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkBenchFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunScaleSuiteRecordsSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("scale suite run skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "scale.json")
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	var out strings.Builder
	// Smallest trajectory point only (N=10^4), both kernels, all kinds.
	if err := run([]string{"-scale", "-scale-max", "10000", "-bench-json", path, "-cpuprofile", cpu}, &out); err != nil {
		t.Fatalf("run -scale: %v", err)
	}
	if err := checkBenchFile(path); err != nil {
		t.Fatalf("scale snapshot fails validation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Experiments) != 0 {
		t.Errorf("scale snapshot carries experiment timings: %+v", snap.Experiments)
	}
	// 3 kinds x 1 size x 2 kernels.
	if len(snap.Scale) != 6 {
		t.Fatalf("scale runs = %d, want 6", len(snap.Scale))
	}
	for i, s := range snap.Scale {
		if s.N != 10_000 || s.M != 100 {
			t.Errorf("run %d: unexpected size N=%d M=%d", i, s.N, s.M)
		}
		odd := i%2 == 1
		if odd && s.Speedup <= 0 {
			t.Errorf("run %d: sharded row missing speedup: %+v", i, s)
		}
		if !odd && s.Speedup != 0 {
			t.Errorf("run %d: single-heap row carries speedup: %+v", i, s)
		}
	}
	// Both kernels processed identical scenarios: messages and steps match
	// pairwise (the determinism contract, visible in the snapshot itself).
	for i := 0; i < len(snap.Scale); i += 2 {
		a, b := snap.Scale[i], snap.Scale[i+1]
		if a.Messages != b.Messages || a.Steps != b.Steps {
			t.Errorf("kernel pair %s diverged: %d/%d msgs, %d/%d steps",
				a.Kind, a.Messages, b.Messages, a.Steps, b.Steps)
		}
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
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

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobiledist"
	"mobiledist/internal/obs"
)

// captureTrace runs a small seeded simulation with a scripted mobility
// workload and writes its trace to path.
func captureTrace(t *testing.T, path string, seed uint64) {
	t.Helper()
	tracer := mobiledist.NewTracer(0)
	cfg := mobiledist.DefaultConfig(2, 3)
	cfg.Seed = seed
	cfg.Obs = tracer
	sys := mobiledist.MustNewSystem(cfg)
	sys.Schedule(0, func() { _ = sys.Move(0, 1) })
	sys.Schedule(50, func() { _ = sys.Disconnect(1) })
	sys.Schedule(150, func() { _ = sys.Reconnect(1, 0, true) })
	sys.Schedule(300, func() { _ = sys.Move(2, 1) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := tracer.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
}

func TestDiffIdenticalRuns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	captureTrace(t, a, 7)
	captureTrace(t, b, 7)
	var out, errOut strings.Builder
	if code := run([]string{"diff", a, b}, &out, &errOut); code != 0 {
		t.Fatalf("diff of identical runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "traces identical") {
		t.Errorf("diff output: %q", out.String())
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	captureTrace(t, a, 7)
	captureTrace(t, b, 8)
	var out, errOut strings.Builder
	if code := run([]string{"diff", a, b}, &out, &errOut); code != 1 {
		t.Fatalf("diff of different seeds: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "traces differ") {
		t.Errorf("diff output: %q", out.String())
	}
}

func TestShowFiltersKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.jsonl")
	captureTrace(t, path, 7)
	var out, errOut strings.Builder
	if code := run([]string{"show", "-kinds", "leave,join", "-no-time", path}, &out, &errOut); code != 0 {
		t.Fatalf("show: exit %d\n%s", code, errOut.String())
	}
	for i, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if i == 0 {
			continue // header comment
		}
		if !strings.HasPrefix(line, "leave ") && !strings.HasPrefix(line, "join ") {
			t.Errorf("unexpected line after kind filter: %q", line)
		}
	}
	if !strings.Contains(out.String(), "join 1 0 1") {
		t.Errorf("reconnect join missing from filtered show:\n%s", out.String())
	}
}

func TestSpacetimeRenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.jsonl")
	captureTrace(t, path, 7)
	var out, errOut strings.Builder
	if code := run([]string{"spacetime", path}, &out, &errOut); code != 0 {
		t.Fatalf("spacetime: exit %d\n%s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "s0") || !strings.Contains(text, "h2") {
		t.Errorf("lane header missing:\n%.200s", text)
	}
	for _, mark := range []string{"L", "J", "D", "R", "H"} {
		if !strings.Contains(text, mark+"  ") {
			t.Errorf("mobility mark %q missing from diagram", mark)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errOut); code != 2 {
		t.Errorf("bad subcommand: exit %d, want 2", code)
	}
	if code := run([]string{"diff", "only-one"}, &out, &errOut); code != 2 {
		t.Errorf("diff with one file: exit %d, want 2", code)
	}
	if code := run([]string{"show", filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestSpacetimeGoldenDTN pins the exact diagram rendered for the
// store-carry-forward bundle events: custody and terminal marks on the
// custodian station's lane, replica transfers as station-to-station
// arrows. The trace is hand-built so the golden output is stable.
func TestSpacetimeGoldenDTN(t *testing.T) {
	tr := obs.Trace{M: 3, N: 1, Events: []obs.Event{
		{T: 10, Kind: obs.EvDisconnect, A: 0, B: 2},
		{T: 20, Kind: obs.EvBundleCustody, A: 1, B: 2, C: 0},
		{T: 30, Kind: obs.EvBundleTransfer, A: 1, B: 2, C: 0},
		{T: 40, Kind: obs.EvBundleExpired, A: 2, B: 1, C: 0},
		{T: 50, Kind: obs.EvBundleDropped, A: 3, B: 0, C: 0},
		{T: 60, Kind: obs.EvReconnect, A: 0, B: 1},
		{T: 70, Kind: obs.EvBundleDelivered, A: 1, B: 0, C: 2},
	}}
	path := filepath.Join(t.TempDir(), "dtn.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	f.Close()
	var out, errOut strings.Builder
	if code := run([]string{"spacetime", path}, &out, &errOut); code != 0 {
		t.Fatalf("spacetime: exit %d\n%s", code, errOut.String())
	}
	golden := "" +
		"      time s0 s1 s2 h0 \n" +
		"        10 .  .  .  D   disconnect 0 2 0\n" +
		"        20 .  .  c  .   bundle-custody 1 2 0\n" +
		"        30 >  -  o  .   bundle-transfer 1 2 0\n" +
		"        40 .  x  .  .   bundle-expired 2 1 0\n" +
		"        50 !  .  .  .   bundle-dropped 3 0 0\n" +
		"        60 .  .  .  R   reconnect 0 1 0\n" +
		"        70 b  .  .  .   bundle-delivered 1 0 2\n"
	if got := out.String(); got != golden {
		t.Errorf("spacetime DTN diagram diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

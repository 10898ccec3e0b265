package experiments

import (
	"reflect"
	"testing"
)

// TestAllParallelMatchesSequential is the determinism regression for the
// parallel driver: for any worker count the tables must be byte-identical
// to the sequential golden reference, in the same order.
func TestAllParallelMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 12345} {
		seq := All(seed)
		par := AllParallel(seed, 8)
		if len(seq) != len(par) {
			t.Fatalf("seed %d: %d sequential tables vs %d parallel", seed, len(seq), len(par))
		}
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Errorf("seed %d: table %d (%s) differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seed, i, seq[i].ID, seq[i].Format(), par[i].Format())
			}
		}
		// The rendered forms must match too: formatting is part of the
		// artefact EXPERIMENTS.md embeds.
		for i := range seq {
			if seq[i].Markdown() != par[i].Markdown() {
				t.Errorf("seed %d: table %s markdown differs", seed, seq[i].ID)
			}
		}
	}
}

// TestAllParallelDegenerateWorkerCounts checks the clamping edges: zero,
// negative, and oversized worker counts all produce the reference suite.
func TestAllParallelDegenerateWorkerCounts(t *testing.T) {
	ref := All(7)
	for _, w := range []int{0, -3, 1, len(tableFuncs()) + 10} {
		got := AllParallel(7, w)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("AllParallel(7, %d) diverged from All(7)", w)
		}
	}
}

package experiments

import (
	"sync"
	"sync/atomic"
)

// experiment is one registry entry. run builds its own System from the
// seed alone, so the tables are fully independent and safe to generate
// concurrently.
type experiment struct {
	id  string
	run func(uint64) Table
	// extra marks an experiment ByID reaches but the default suite leaves
	// out.
	extra bool
}

// registry lists every experiment once, in DESIGN.md index order.
var registry = []experiment{
	{"E1", E1LamportCostVsN, false},
	{"E2", E2LamportEnergy, false},
	{"E3", E3LamportDisconnect, false},
	{"E4", E4RingCostVsK, false},
	{"E5", E5RingFairness, false},
	{"E6", E6TokenList, false},
	{"E7", E7RingDisconnect, false},
	{"E8", E8GroupCostVsMobility, false},
	{"E9", E9GroupLocality, false},
	{"E10", E10GroupWireless, false},
	{"E11", E11ProxyTraffic, false},
	{"A1", A1SearchModes, false},
	{"A2", A2Crossover, false},
	{"A3", A3LazyInform, false},
	{"A4", A4MulticastHandoff, false},
	{"D1", D1StoreCarryForward, false},
	// F1's content depends on the process-wide default fault plan, and the
	// fault-free tables must stay byte-identical with or without it
	// compiled in.
	{"F1", F1Unreliability, true},
}

// suite returns the default suite: the registry without its extras.
func suite() []experiment {
	var out []experiment
	for _, e := range registry {
		if !e.extra {
			out = append(out, e)
		}
	}
	return out
}

// All runs every experiment in the suite, in DESIGN.md index order. It is
// the sequential golden reference: AllParallel must produce byte-identical
// tables for any worker count.
func All(seed uint64) []Table {
	return AllParallel(seed, 1)
}

// AllParallel regenerates the full suite using up to workers goroutines.
//
// Determinism contract: every table is a pure function of its (experiment,
// seed) pair — each experiment constructs private Systems with private
// kernels and RNGs, shares no state with its siblings, and writes only its
// own result slot. Worker scheduling therefore cannot influence any table's
// content, and the result slice is always in DESIGN.md index order, so
// AllParallel(seed, w) == All(seed) for every w ≥ 1.
func AllParallel(seed uint64, workers int) []Table {
	es := suite()
	out := make([]Table, len(es))
	if workers > len(es) {
		workers = len(es)
	}
	if workers <= 1 {
		for i, e := range es {
			out[i] = e.run(seed)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(es) {
					return
				}
				out[i] = es[i].run(seed)
			}
		}()
	}
	wg.Wait()
	return out
}

// ByID returns the experiment with the given id, or false. Every registry
// entry is addressable, extras included.
func ByID(id string, seed uint64) (Table, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.run(seed), true
		}
	}
	return Table{}, false
}

// IDs lists the default suite's experiment ids in index order.
func IDs() []string {
	var ids []string
	for _, e := range suite() {
		ids = append(ids, e.id)
	}
	return ids
}

package cost

// Closed-form cost expressions from the paper, used by tests and by
// EXPERIMENTS.md to compare measured message counts against the published
// analysis. Variable names follow the paper: N mobile hosts, M support
// stations, K requests granted in one ring traversal, G group size,
// LV the location-view size, MOB total member moves, MSG group messages,
// f the significant fraction of moves.

// AnalyticL1PerExecution is the total cost of one execution of algorithm L1
// (Lamport's mutual exclusion run directly on the N MHs):
//
//	3 × (N−1) × (2·Cwireless + Csearch)
func AnalyticL1PerExecution(n int, p Params) float64 {
	return 3 * float64(n-1) * (2*p.Wireless + p.Search)
}

// AnalyticL1WirelessPerExecution is the number of wireless transmissions and
// receptions one L1 execution causes across all MHs: 6 × (N−1).
func AnalyticL1WirelessPerExecution(n int) int64 {
	return 6 * int64(n-1)
}

// AnalyticLendingRound is the cost of the round L2 and R2 share between a
// MH and the station tier (internal/mutex Round): the request to the local
// MSS (wireless) + the grant, found by search (search+wireless) + the
// return through the MH's current MSS, relayed to the granting station
// (wireless+fixed):
//
//	3·Cwireless + Cfixed + Csearch
func AnalyticLendingRound(p Params) float64 {
	return 3*p.Wireless + p.Fixed + p.Search
}

// AnalyticL2PerExecution is the total cost of one execution of algorithm L2
// (Lamport's algorithm run by the MSSs on behalf of a MH): one lending
// round (init, grant, release-resource) plus the request/reply/release
// exchange among the M MSSs:
//
//	(3·Cwireless + Cfixed + Csearch) + 3 × (M−1) × Cfixed
func AnalyticL2PerExecution(m int, p Params) float64 {
	return AnalyticLendingRound(p) + 3*float64(m-1)*p.Fixed
}

// AnalyticL2WirelessPerExecution is the number of wireless messages one L2
// execution requires: exactly 3 (init, grant, release-resource).
func AnalyticL2WirelessPerExecution() int64 { return 3 }

// AnalyticR1PerTraversal is the cost for the token to traverse the ring of N
// MHs once in algorithm R1: N × (2·Cwireless + Csearch). It is independent
// of the number of requests granted.
func AnalyticR1PerTraversal(n int, p Params) float64 {
	return float64(n) * (2*p.Wireless + p.Search)
}

// AnalyticR2PerTraversal is the cost of one ring traversal in algorithm R2
// (and R2′) granting K requests:
//
//	K × (3·Cwireless + Cfixed + Csearch) + M × Cfixed
func AnalyticR2PerTraversal(m, k int, p Params) float64 {
	return float64(k)*AnalyticLendingRound(p) + float64(m)*p.Fixed
}

// AnalyticR2PerRequest is the cost of granting a single request in R2: one
// lending round (request, token out, token back).
func AnalyticR2PerRequest(p Params) float64 {
	return AnalyticLendingRound(p)
}

// AnalyticPureSearchGroupMsg is the cost of one group message under the pure
// search strategy: (|G|−1) × (2·Cwireless + Csearch).
func AnalyticPureSearchGroupMsg(g int, p Params) float64 {
	return float64(g-1) * (2*p.Wireless + p.Search)
}

// AnalyticAlwaysInformGroupMsg is the cost of one group message (or one
// location update — they cost the same) under the always-inform strategy:
// (|G|−1) × (2·Cwireless + Cfixed).
func AnalyticAlwaysInformGroupMsg(g int, p Params) float64 {
	return float64(g-1) * (2*p.Wireless + p.Fixed)
}

// AnalyticAlwaysInformEffective is the effective per-group-message cost of
// always-inform with mobility ratio mobPerMsg = MOB/MSG:
//
//	(1 + MOB/MSG) × (|G|−1) × (2·Cwireless + Cfixed)
func AnalyticAlwaysInformEffective(g int, mobPerMsg float64, p Params) float64 {
	return (1 + mobPerMsg) * AnalyticAlwaysInformGroupMsg(g, p)
}

// AnalyticLocationViewGroupMsg is the cost of one group message under the
// location-view strategy with current view size lv:
// (|LV|−1) × Cfixed + |G| × Cwireless (sender uplink plus one downlink per
// recipient).
func AnalyticLocationViewGroupMsg(g, lv int, p Params) float64 {
	return float64(lv-1)*p.Fixed + float64(g)*p.Wireless
}

// AnalyticLocationViewUpdateBound is the paper's bound on the cost of one
// LV(G) update: (|LV| + 3) × Cfixed.
func AnalyticLocationViewUpdateBound(lv int, p Params) float64 {
	return float64(lv+3) * p.Fixed
}

// AnalyticLocationViewEffectiveBound is the paper's bound on the effective
// per-group-message cost of the location-view strategy:
//
//	(f·MOB/MSG + 1) × |LV|max × Cfixed + 3·f·(MOB/MSG) × Cfixed + |G| × Cwireless
//
// where f is the significant fraction of moves and lvMax the largest view.
func AnalyticLocationViewEffectiveBound(g, lvMax int, f, mobPerMsg float64, p Params) float64 {
	return (f*mobPerMsg+1)*float64(lvMax)*p.Fixed + 3*f*mobPerMsg*p.Fixed + float64(g)*p.Wireless
}

// RingCrossoverK returns the smallest K at which one R2 traversal granting K
// requests costs at least one R1 traversal — the point past which R1's
// flat-but-large traversal cost amortises better. Returns -1 when R2 is
// cheaper for every K in [0, maxK].
func RingCrossoverK(n, m, maxK int, p Params) int {
	r1 := AnalyticR1PerTraversal(n, p)
	for k := 0; k <= maxK; k++ {
		if AnalyticR2PerTraversal(m, k, p) >= r1 {
			return k
		}
	}
	return -1
}

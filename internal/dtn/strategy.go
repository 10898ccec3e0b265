package dtn

import (
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// RoutingAlgorithm decides how bundles replicate between stations while
// their destination is away. What every strategy shares the Manager does
// itself: a replica parks where it entered a store, and when its host
// joins a cell every stored replica drains toward that station. A strategy
// differs only by the optional capabilities it adds: periodic maintenance
// (Ticker) or replication as a replica enters a store (sprayer).
type RoutingAlgorithm interface {
	// Name identifies the strategy in tables and traces.
	Name() string
}

// Ticker is an optional strategy capability: periodic maintenance (the
// epidemic anti-entropy exchange). The manager arms the timer as a
// daemon — it does not hold the substrate's idle accounting open — and
// only while any store is non-empty or replicas are in flight, so an
// idle network runs no timers at all.
type Ticker interface {
	// TickEvery is the gossip period in ticks.
	TickEvery() sim.Time
	// Tick runs one maintenance round.
	Tick(m *Manager)
}

// sprayer is an optional strategy capability: consulted as replica b
// enters at's store, sprayTarget names the one station that should get
// half of b's tokens now, if any.
type sprayer interface {
	sprayTarget(m *Manager, at engine.MSSID, b *Bundle) (engine.MSSID, bool)
}

// Park is the paper-faithful control strategy: custody stays at the
// station where the host disconnected, and moves only when the host
// reappears. No replication, no gossip — a crash of the custodian loses
// everything it parked.
type Park struct{}

// Name identifies the strategy.
func (Park) Name() string { return "park" }

// Epidemic floods bundles between neighbouring stations by periodic
// anti-entropy: each gossip tick, every station holding bundles sends
// its summary vector to its ring neighbours; a neighbour answers with
// the IDs it lacks and the holder replicates them. Replicas survive
// single-station crashes once a round of gossip has run, at the price of
// up to M replicas per bundle.
type Epidemic struct {
	// Every is the gossip period in ticks (default 100).
	Every sim.Time
}

// Name identifies the strategy.
func (Epidemic) Name() string { return "epidemic" }

// TickEvery implements Ticker.
func (e Epidemic) TickEvery() sim.Time {
	if e.Every <= 0 {
		return 100
	}
	return e.Every
}

// Tick runs one anti-entropy round: every station holding bundles
// exchanges summaries with its ring neighbours.
func (e Epidemic) Tick(m *Manager) {
	n := len(m.stores)
	if n < 2 {
		return
	}
	for mss := 0; mss < n; mss++ {
		at := engine.MSSID(mss)
		m.sendSummary(at, engine.MSSID((mss+1)%n))
		if n > 2 {
			m.sendSummary(at, engine.MSSID((mss+n-1)%n))
		}
	}
}

// SprayAndWait is binary spray-and-wait aimed at mobility history: a
// bundle starts with L tokens; a station holding a replica with more
// than one token forwards half the tokens to the cell its destination
// visited most recently that lacks a replica (mobile hosts tend to
// revisit cells, so recently-visited is the best reachability prior the
// fixed tier has). Replicas down to one token wait for the host to
// reappear. Replication cost is bounded by L per bundle regardless of M.
type SprayAndWait struct{}

// Name identifies the strategy.
func (SprayAndWait) Name() string { return "spray" }

// sprayTarget picks the destination's most recently visited cell without
// a replica, while the replica has tokens to give.
func (SprayAndWait) sprayTarget(m *Manager, at engine.MSSID, b *Bundle) (engine.MSSID, bool) {
	if b.Tokens <= 1 {
		return 0, false
	}
	for _, cell := range m.visits[b.MH] {
		if cell != at && !m.stores[cell].Has(b.ID) {
			return cell, true
		}
	}
	return 0, false
}

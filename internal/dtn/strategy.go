package dtn

import (
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// Host is the service surface the Manager offers routing strategies —
// deliberately the DTN7 shape: the strategy decides where replicas go,
// the host executes the movement, accounting, and delivery mechanics.
type Host interface {
	// M returns the number of stations.
	M() int
	// Now returns the current virtual time.
	Now() sim.Time
	// HasReplica reports whether station at holds a replica of id.
	HasReplica(at engine.MSSID, id BundleID) bool
	// StoredAt returns the bundle IDs resident at the station, in
	// ascending order.
	StoredAt(at engine.MSSID) []BundleID
	// RecentCells returns the cells mh recently joined, most recent
	// first (bounded by Config.HistoryDepth). Empty for a host that has
	// not moved since the run started.
	RecentCells(mh engine.MHID) []engine.MSSID
	// SendSummary ships from's summary vector to peer over the wired
	// network; the peer answers with a want-list and from replicates
	// every still-present bundle the peer asked for (anti-entropy).
	SendSummary(from, peer engine.MSSID)
	// DeliverAll moves every stored replica destined for mh, from every
	// station, toward station at (where mh just appeared); the first
	// replica of each bundle to arrive is redelivered, the rest are
	// discarded as duplicates.
	DeliverAll(at engine.MSSID, mh engine.MHID)
}

// RoutingAlgorithm decides how bundles replicate between stations while
// their destination is away. The five callbacks mirror DTN7's routing
// interface; all run on the engine's execution context.
type RoutingAlgorithm interface {
	// Name identifies the strategy in tables and traces.
	Name() string
	// NotifyIncoming observes a bundle entering at's store (fresh
	// custody or an arriving replica), before SenderForBundle is
	// consulted.
	NotifyIncoming(h Host, at engine.MSSID, b *Bundle)
	// SenderForBundle is consulted when b enters at's store: it returns
	// the peer stations that should receive replicas now, and whether
	// at should drop its own replica after sending (custody transfer
	// rather than copy). Token accounting is the manager's job.
	SenderForBundle(h Host, at engine.MSSID, b *Bundle) (peers []engine.MSSID, drop bool)
	// ReportPeerAppeared fires when mh joins a cell at station at
	// (reconnection or an ordinary move while bundles are parked).
	ReportPeerAppeared(h Host, at engine.MSSID, mh engine.MHID)
	// ReportPeerDisappeared fires when mh disconnects at station at.
	ReportPeerDisappeared(h Host, at engine.MSSID, mh engine.MHID)
	// ReportFailure observes a replica leaving custody without
	// delivering: "expired", "evicted", "quota", or "crash".
	ReportFailure(h Host, at engine.MSSID, b *Bundle, reason string)
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
	Tick(h Host)
}

// Park is the paper-faithful control strategy: custody stays at the
// station where the host disconnected, and moves only when the host
// reappears. No replication, no gossip — a crash of the custodian loses
// everything it parked.
type Park struct{}

// Name identifies the strategy.
func (Park) Name() string { return "park" }

// NotifyIncoming is a no-op: Park never acts on arrivals.
func (Park) NotifyIncoming(Host, engine.MSSID, *Bundle) {}

// SenderForBundle never replicates.
func (Park) SenderForBundle(Host, engine.MSSID, *Bundle) ([]engine.MSSID, bool) {
	return nil, false
}

// ReportPeerAppeared drains everything parked for the host toward its
// new station.
func (Park) ReportPeerAppeared(h Host, at engine.MSSID, mh engine.MHID) {
	h.DeliverAll(at, mh)
}

// ReportPeerDisappeared is a no-op.
func (Park) ReportPeerDisappeared(Host, engine.MSSID, engine.MHID) {}

// ReportFailure is a no-op.
func (Park) ReportFailure(Host, engine.MSSID, *Bundle, string) {}

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
func (e Epidemic) Tick(h Host) {
	m := h.M()
	if m < 2 {
		return
	}
	for mss := 0; mss < m; mss++ {
		at := engine.MSSID(mss)
		h.SendSummary(at, engine.MSSID((mss+1)%m))
		if m > 2 {
			h.SendSummary(at, engine.MSSID((mss+m-1)%m))
		}
	}
}

// NotifyIncoming is a no-op: epidemic spreads on the tick, not on
// arrival.
func (Epidemic) NotifyIncoming(Host, engine.MSSID, *Bundle) {}

// SenderForBundle never replicates eagerly; gossip does the spreading.
func (Epidemic) SenderForBundle(Host, engine.MSSID, *Bundle) ([]engine.MSSID, bool) {
	return nil, false
}

// ReportPeerAppeared drains every replica toward the host's new station.
func (Epidemic) ReportPeerAppeared(h Host, at engine.MSSID, mh engine.MHID) {
	h.DeliverAll(at, mh)
}

// ReportPeerDisappeared is a no-op.
func (Epidemic) ReportPeerDisappeared(Host, engine.MSSID, engine.MHID) {}

// ReportFailure is a no-op.
func (Epidemic) ReportFailure(Host, engine.MSSID, *Bundle, string) {}

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

// NotifyIncoming is a no-op; spraying happens via SenderForBundle.
func (SprayAndWait) NotifyIncoming(Host, engine.MSSID, *Bundle) {}

// SenderForBundle sprays half the replica's tokens toward the
// destination's most recently visited cell without a replica.
func (SprayAndWait) SenderForBundle(h Host, at engine.MSSID, b *Bundle) ([]engine.MSSID, bool) {
	if b.Tokens <= 1 {
		return nil, false
	}
	for _, cell := range h.RecentCells(b.MH) {
		if cell != at && !h.HasReplica(cell, b.ID) {
			return []engine.MSSID{cell}, false
		}
	}
	return nil, false
}

// ReportPeerAppeared drains every replica toward the host's new station.
func (SprayAndWait) ReportPeerAppeared(h Host, at engine.MSSID, mh engine.MHID) {
	h.DeliverAll(at, mh)
}

// ReportPeerDisappeared is a no-op.
func (SprayAndWait) ReportPeerDisappeared(Host, engine.MSSID, engine.MHID) {}

// ReportFailure is a no-op.
func (SprayAndWait) ReportFailure(Host, engine.MSSID, *Bundle, string) {}

// Package dtn adds store-carry-forward (delay-tolerant) routing to the
// fixed tier of the two-tier network. The paper's base protocol treats a
// disconnected mobile host as unreachable: any message routed to it is
// bounced back to the sender as a delivery failure (Section 2). This
// package replaces that bounce with custody — the MSS serving the cell
// where the host disconnected stores the message in a bounded replica
// store and a pluggable routing strategy decides how replicas move
// between stations while the host is away. When the host reconnects
// anywhere, the first replica to reach its new station is redelivered
// through the normal engine routing path (search + wireless downlink);
// every other replica is discarded as a duplicate.
//
// The seam with the engine is the CustodyHook offered at the three points
// where the base protocol would otherwise fail or drop a delivery:
// routing to a disconnected host, a wireless downlink arriving after the
// host disconnected in place, and waiter-queue overflow for a host stuck
// in transit. Accepting custody costs exactly what the failure
// notification it replaces would have cost (one fixed control message
// charge happens before the offer either way), so a run with the Park
// strategy and no reconnections is cost-identical to the base protocol.
//
// Exactly-once delivery holds globally: bundle IDs are allocated once per
// custody acceptance, and a global retired set (the manager models the
// fixed tier's shared view, like the engine's location registry) retires
// an ID at its primary delivery, so late replicas can never deliver
// twice. Per-pair FIFO survives because redelivery re-enters the engine
// with the bundle's original routing options — the pair sequence buffer
// reorders out-of-order arrivals, and every terminally-lost bundle
// (expiry, eviction, crash wipe, and replicas discarded on the wire
// toward a crashed receiver — NoteCrash reaps the in-flight ledger)
// releases its sequence slot so later traffic of the pair is not wedged
// behind the hole.
package dtn

import (
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// BundleID names one custody acceptance. IDs are allocated monotonically
// by the manager, so ascending ID order is custody-acceptance order —
// which, per ordered sender pair, is original send order.
type BundleID uint64

// Bundle is one message under custody. Replicas of the same bundle share
// the ID, message, and routing options; Tokens is per-replica state
// (binary spray-and-wait splits it on each replication).
type Bundle struct {
	// ID identifies the bundle across all replicas.
	ID BundleID
	// MH is the destination mobile host.
	MH engine.MHID
	// Msg is the original payload.
	Msg engine.Message
	// Ref carries the engine routing options the payload was travelling
	// with when custody was taken; redelivery and failure release use it.
	Ref engine.CustodyRef
	// Created is the custody-acceptance time.
	Created sim.Time
	// Expiry is the absolute time-to-live deadline; 0 means never.
	Expiry sim.Time
	// Tokens is the spray-and-wait token budget of this replica. A
	// replica with one token is in the "wait" phase and only delivers
	// directly.
	Tokens int
}

// expired reports whether the bundle's TTL has passed at now.
func (b *Bundle) expired(now sim.Time) bool {
	return b.Expiry != 0 && now >= b.Expiry
}

// Config parameterises a Manager.
type Config struct {
	// Strategy is the routing algorithm replicating bundles between
	// stations. Nil defaults to Park (custody only, no replication —
	// the paper-faithful control).
	Strategy RoutingAlgorithm
	// TTL is the per-bundle time-to-live in ticks from custody
	// acceptance; 0 means bundles never expire. Expiry is checked
	// lazily (at arrivals, gossip ticks, and reconnections) — there are
	// no per-bundle timers.
	TTL sim.Time
	// StoreCap bounds the bundles held per station; 0 means unlimited.
	// An arrival at a full store evicts the least-recently-useful
	// resident bundle to make room.
	StoreCap int
	// MHQuota bounds the bundles one station holds per destination MH;
	// 0 means unlimited. Arrivals over quota are refused.
	MHQuota int
}

const (
	// sprayCopies is the token budget L each new bundle starts with (only
	// binary spray-and-wait consumes it).
	sprayCopies = 4
	// historyDepth is how many recently joined cells are remembered per
	// MH for spray targeting.
	historyDepth = 4
)

// Stats counts custody activity across all stations. Read it after the
// run settles (or between settled phases); it is maintained on the
// engine's execution context.
type Stats struct {
	// Accepted counts custody acceptances (new bundle IDs).
	Accepted int64
	// Delivered counts primary deliveries (bundles handed back to the
	// engine for redelivery after their MH reappeared).
	Delivered int64
	// Duplicates counts replica arrivals discarded because the bundle
	// was already delivered, already failed, or already resident.
	Duplicates int64
	// Transfers counts replicas shipped between stations (both
	// strategy replication and custody moves toward a reconnected MH).
	Transfers int64
	// SummariesSent counts anti-entropy summary vectors sent.
	SummariesSent int64
	// Expired counts replicas dropped because their TTL passed.
	Expired int64
	// EvictedLRU counts replicas evicted from a full store to admit an
	// arrival.
	EvictedLRU int64
	// DroppedQuota counts arrivals refused by the per-MH quota.
	DroppedQuota int64
	// Lost counts replicas wiped by a station crash or lost to a
	// crashed receiver.
	Lost int64
	// Failed counts bundles whose last replica was lost before
	// delivery (the terminal outcome; each adds one engine-visible
	// delivery failure or abandonment).
	Failed int64
}

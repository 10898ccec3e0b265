package engine

import "mobiledist/internal/cost"

// This file is the engine side of the store-carry-forward seam
// (internal/dtn). The engine never stores bundles itself: when a routed
// delivery discovers its destination disconnected (routeToMH, downArrive)
// or an in-transit waiter queue overflows (addWaiter), it offers the
// message to the bound CustodyHook instead of sending the paper's
// disconnected notification. The hook's subsystem later re-enters the
// engine through RedeliverCustody (destination reappeared), FailCustody
// (TTL expired: the origin is notified as if the send had failed), or
// AbandonCustody (the last replica was lost, e.g. a crash wiped the
// holder's volatile store). With no hook bound every path below is dead
// and the engine's behavior is bit-for-bit the paper's.

// CustodyRef is the opaque routing context a custodied message must carry
// so its eventual redelivery (or failure) is indistinguishable from an
// ordinary routed delivery: same algorithm, same cost category, same
// per-pair FIFO slot. It travels by value inside bundles.
type CustodyRef struct {
	opts routeOpts
}

// Origin reports the MSS that initiated the routed send (the station a
// failure notification would go to).
func (r CustodyRef) Origin() MSSID { return r.opts.origin }

// CustodyHook is offered messages the engine would otherwise bounce with a
// disconnected-delivery failure or drop on waiter overflow. Every offer
// site charges one fixed control message before the offer — at the two
// routed-failure sites that is exactly what the replaced notification
// would have cost; at the overflow site it prices the handover the same
// way so custody acceptance is cost-uniform across all three seams.
// Returning true transfers responsibility for the message to the hook and
// the engine forgets it. Returning false restores the paper's behavior.
//
// OfferCustody runs on the engine's execution context, mid-route; it may
// call Context send methods but must not deliver synchronously.
type CustodyHook interface {
	OfferCustody(holder MSSID, mh MHID, msg Message, ref CustodyRef) bool
}

// BindCustody installs the custody hook. Must be called during the
// single-threaded build phase, before events flow.
func (e *Engine) BindCustody(h CustodyHook) { e.custody = h }

// RedeliverCustody re-routes a custodied message from the given MSS after
// its destination reappeared. The retry is charged like a stale re-route
// (cost.CatStale searches), so primary accounting still shows exactly one
// delivery per message; the final wireless leg stays in the original
// category.
func (e *Engine) RedeliverCustody(from MSSID, mh MHID, msg Message, ref CustodyRef) {
	e.checkMSS(from)
	e.checkMH(mh)
	e.routeToMH(from, mh, msg, ref.opts, true)
}

// FailCustody gives up on a custodied message (TTL expiry, store
// eviction): the holder notifies the origin exactly as the paper's
// disconnected path would have. The message's pair sequence slot is
// tombstoned immediately — pair state is global engine state, and the
// notification itself may be discarded if the origin is down — so later
// ordered traffic keeps flowing whether or not the origin ever hears.
func (e *Engine) FailCustody(holder MSSID, mh MHID, msg Message, ref CustodyRef) {
	e.checkMSS(holder)
	e.checkMH(mh)
	e.meter.Charge(cost.CatControl, cost.KindFixed)
	e.failToOrigin(holder, mh, msg, ref.opts)
}

// AbandonCustody records the silent loss of a custodied message whose
// every replica is gone (a crash wiped the volatile store): no
// notification can be sent, but the failure is counted and the pair
// sequence slot is tombstoned.
func (e *Engine) AbandonCustody(ref CustodyRef) {
	e.stats.FailedDeliveries++
	e.skipPairSeq(ref.opts)
}

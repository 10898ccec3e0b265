package engine

import (
	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// Context is the capability surface algorithms use to interact with the
// network. The engine provides the single implementation; substrates only
// supply time, scheduling, and channel transport underneath it.
type Context interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// After sends msg to the algorithm itself, to arrive at its HandleTimer
	// (TimerHandler) after d. It panics if the algorithm has no HandleTimer.
	After(d sim.Time, msg Message)
	// AfterDaemon schedules msg like After but as a background daemon
	// timer: on live substrates the armed timer does not count as an
	// outstanding operation, so standing periodic maintenance (DTN gossip
	// ticks) cannot wedge WaitIdle. Use After for anything the network
	// must settle on.
	AfterDaemon(d sim.Time, msg Message)
	// RNG returns a deterministic random source.
	RNG() *sim.RNG

	// M returns the number of mobile support stations.
	M() int
	// N returns the number of mobile hosts.
	N() int
	// Params returns the cost model constants.
	Params() cost.Params

	// SendFixed sends msg from MSS from to MSS to over the wired network
	// (FIFO, arbitrary latency, cost Cfixed). Self-sends are permitted and
	// charged, matching the paper's unconditional cost terms.
	SendFixed(from, to MSSID, msg Message, cat cost.Category)
	// BroadcastFixed sends msg from from to every other MSS ((M-1) fixed
	// messages).
	BroadcastFixed(from MSSID, msg Message, cat cost.Category)
	// SendToMH routes msg from MSS from to mobile host mh, searching for it
	// if necessary and retrying across moves until delivered, or reporting
	// failure via DeliveryFailureHandler if mh has disconnected.
	SendToMH(from MSSID, mh MHID, msg Message, cat cost.Category)
	// SendToLocalMH delivers msg over the local wireless channel only. It
	// returns an error if mh is not currently local to from.
	SendToLocalMH(from MSSID, mh MHID, msg Message, cat cost.Category) error
	// SendFromMH transmits msg from mh to its current local MSS. If mh is
	// between cells the send is deferred until it joins one. It returns an
	// error if mh has disconnected.
	SendFromMH(mh MHID, msg Message, cat cost.Category) error
	// SendMHToMH sends msg from one mobile host to another: wireless uplink,
	// routing with search, wireless downlink. Deliveries for each ordered
	// (from, to) pair are FIFO (the burden algorithm L1 places on the
	// network layer, Section 3.1.1).
	SendMHToMH(from, to MHID, msg Message, cat cost.Category) error
	// SendMHViaMSS sends msg from mobile host from to mobile host to by way
	// of the MSS a location directory names (the always-inform strategy of
	// Section 4.2): wireless uplink, one fixed hop to via (charged even if
	// via is the sender's own MSS), wireless downlink — no search. If the
	// directory entry is stale (to is no longer at via) the message is
	// re-routed with a search charged to cost.CatStale.
	SendMHViaMSS(from MHID, via MSSID, to MHID, msg Message, cat cost.Category) error
	// SendToMHVia delivers msg from MSS from to mobile host to through the
	// MSS a directory names: one fixed hop (charged unconditionally) plus
	// the wireless downlink, no search. A stale directory entry falls back
	// to a search charged to cost.CatStale. This is how a fixed (home)
	// proxy that is kept informed of its MH's location reaches it
	// (Section 5).
	SendToMHVia(from, via MSSID, to MHID, msg Message, cat cost.Category)
	// SendToMSSOfMH locates mh and delivers msg to the MSS currently
	// serving it — the literal operation the paper prices at Csearch
	// ("locate a MH and forward a message to its current local MSS"). If mh
	// has disconnected the sender is notified via DeliveryFailureHandler.
	SendToMSSOfMH(from MSSID, mh MHID, msg Message, cat cost.Category)

	// IsLocal reports whether mh is currently in mss's cell. Only the local
	// MSS legitimately knows this (its list of local MHs).
	IsLocal(mss MSSID, mh MHID) bool
	// LocalMHs returns the MHs currently local to mss, in ascending order.
	// The returned slice may alias the network's live membership store:
	// callers must treat it as read-only and must not retain it across
	// events (mobility invalidates it).
	LocalMHs(mss MSSID) []MHID
	// IsDisconnectedHere reports whether mss holds the "disconnected" flag
	// for mh (i.e. mh disconnected while in mss's cell).
	IsDisconnectedHere(mss MSSID, mh MHID) bool

	// NoteTokenRegeneration records one recovery-elected token
	// regeneration in the model Stats (Stats.TokenRegenerations), so
	// experiments can surface recovery activity next to the cost columns.
	NoteTokenRegeneration()

	// NoteCSRequest, NoteCSEnter, and NoteCSExit record mutual-exclusion
	// progress in the observability stream (internal/obs): a request by mh,
	// the grant that admits mh to the critical section, and its release.
	// The tracer pairs request with enter to build the CS-latency
	// histogram. No-ops when tracing is disabled; never charged.
	NoteCSRequest(mh MHID)
	NoteCSEnter(mh MHID)
	NoteCSExit(mh MHID)
	// NoteTokenPass records a privilege (token) transfer from one mobile
	// host to the next in the observability stream.
	NoteTokenPass(from, to MHID)

	// NoteGroupInform, NoteGroupViewUpdate, and NoteGroupStaleLookup record
	// group-communication strategy activity (Section 4.2) in the
	// observability stream: a member's post-join location broadcast, a
	// view change the coordinator committed (added/removed are -1 when that
	// side did not change; size is the view size after), and a group send
	// that fell back to coordinator routing because the sender's local view
	// was not usable. No-ops when tracing is disabled; never charged.
	NoteGroupInform(mh MHID, at MSSID)
	NoteGroupViewUpdate(added, removed MSSID, size int)
	NoteGroupStaleLookup(mh MHID, at MSSID)

	// NoteBundleCustody, NoteBundleTransfer, NoteBundleDelivered,
	// NoteBundleExpired, and NoteBundleDropped record store-carry-forward
	// custody activity (internal/dtn) in the observability stream: a
	// bundle accepted into holder's store for mh, a replica shipped
	// between stations, the primary delivery (copies = replicas created
	// over the bundle's lifetime), a TTL expiry at holder, and a replica
	// dropped (quota, LRU eviction, duplicate, or crash wipe). No-ops
	// when tracing is disabled; never charged.
	NoteBundleCustody(id uint64, holder MSSID, mh MHID)
	NoteBundleTransfer(id uint64, from, to MSSID)
	NoteBundleDelivered(id uint64, at MSSID, copies int)
	NoteBundleExpired(id uint64, holder MSSID, mh MHID)
	NoteBundleDropped(id uint64, holder MSSID, mh MHID)
}

// algContext is the Context handed to one registered algorithm. It is the
// only Context implementation: both substrates share it, so every Context
// capability behaves identically on the simulator and the live runtime.
type algContext struct {
	e   *Engine
	alg int32
}

var _ Context = (*algContext)(nil)

func (c *algContext) Now() sim.Time { return c.e.sub.Now() }

func (c *algContext) After(d sim.Time, msg Message) {
	c.e.sub.AfterRec(d, c.e.timerRec(c.alg, msg, false))
}

func (c *algContext) AfterDaemon(d sim.Time, msg Message) {
	c.e.sub.AfterRec(d, c.e.timerRec(c.alg, msg, true))
}

func (c *algContext) RNG() *sim.RNG { return c.e.sub.RNG() }

func (c *algContext) M() int { return c.e.cfg.M }

func (c *algContext) N() int { return c.e.cfg.N }

func (c *algContext) Params() cost.Params { return c.e.cfg.Params }

func (c *algContext) SendFixed(from, to MSSID, msg Message, cat cost.Category) {
	c.e.sendFixed(c.alg, from, to, msg, cat)
}

func (c *algContext) BroadcastFixed(from MSSID, msg Message, cat cost.Category) {
	c.e.broadcastFixed(c.alg, from, msg, cat)
}

func (c *algContext) SendToMH(from MSSID, mh MHID, msg Message, cat cost.Category) {
	c.e.sendToMH(c.alg, from, mh, msg, cat)
}

func (c *algContext) SendToLocalMH(from MSSID, mh MHID, msg Message, cat cost.Category) error {
	return c.e.sendToLocalMH(c.alg, from, mh, msg, cat)
}

func (c *algContext) SendFromMH(mh MHID, msg Message, cat cost.Category) error {
	return c.e.sendFromMH(c.alg, mh, msg, cat)
}

func (c *algContext) SendMHToMH(from, to MHID, msg Message, cat cost.Category) error {
	return c.e.sendMHToMH(c.alg, from, to, msg, cat)
}

func (c *algContext) SendMHViaMSS(from MHID, via MSSID, to MHID, msg Message, cat cost.Category) error {
	return c.e.sendMHViaMSS(c.alg, from, via, to, msg, cat)
}

func (c *algContext) SendToMHVia(from, via MSSID, to MHID, msg Message, cat cost.Category) {
	c.e.sendToMHVia(c.alg, from, via, to, msg, cat)
}

func (c *algContext) SendToMSSOfMH(from MSSID, mh MHID, msg Message, cat cost.Category) {
	c.e.sendToMSSOfMH(c.alg, from, mh, msg, cat)
}

func (c *algContext) IsLocal(mss MSSID, mh MHID) bool {
	c.e.checkMSS(mss)
	c.e.checkMH(mh)
	return c.e.mss[mss].local.has(mh)
}

func (c *algContext) LocalMHs(mss MSSID) []MHID {
	return c.e.localMHs(mss)
}

func (c *algContext) IsDisconnectedHere(mss MSSID, mh MHID) bool {
	c.e.checkMSS(mss)
	c.e.checkMH(mh)
	return c.e.mss[mss].disconnected[mh]
}

func (c *algContext) NoteTokenRegeneration() {
	c.e.stats.TokenRegenerations++
}

func (c *algContext) NoteCSRequest(mh MHID) {
	c.e.event(obs.EvCSRequest, int32(mh), 0, 0)
}

func (c *algContext) NoteCSEnter(mh MHID) {
	c.e.event(obs.EvCSEnter, int32(mh), 0, 0)
}

func (c *algContext) NoteCSExit(mh MHID) {
	c.e.event(obs.EvCSExit, int32(mh), 0, 0)
}

func (c *algContext) NoteTokenPass(from, to MHID) {
	c.e.event(obs.EvTokenPass, int32(from), int32(to), 0)
}

func (c *algContext) NoteGroupInform(mh MHID, at MSSID) {
	c.e.event(obs.EvGroupInform, int32(mh), int32(at), 0)
}

func (c *algContext) NoteGroupViewUpdate(added, removed MSSID, size int) {
	c.e.event(obs.EvGroupViewUpdate, int32(added), int32(removed), int32(size))
}

func (c *algContext) NoteGroupStaleLookup(mh MHID, at MSSID) {
	c.e.event(obs.EvGroupStaleLookup, int32(mh), int32(at), 0)
}

func (c *algContext) NoteBundleCustody(id uint64, holder MSSID, mh MHID) {
	c.e.event(obs.EvBundleCustody, int32(id), int32(holder), int32(mh))
}

func (c *algContext) NoteBundleTransfer(id uint64, from, to MSSID) {
	c.e.event(obs.EvBundleTransfer, int32(id), int32(from), int32(to))
}

func (c *algContext) NoteBundleDelivered(id uint64, at MSSID, copies int) {
	c.e.event(obs.EvBundleDelivered, int32(id), int32(at), int32(copies))
}

func (c *algContext) NoteBundleExpired(id uint64, holder MSSID, mh MHID) {
	c.e.event(obs.EvBundleExpired, int32(id), int32(holder), int32(mh))
}

func (c *algContext) NoteBundleDropped(id uint64, holder MSSID, mh MHID) {
	c.e.event(obs.EvBundleDropped, int32(id), int32(holder), int32(mh))
}

package engine

import (
	"fmt"
	"slices"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
)

// routeOpts carries routing context through retries. It travels by value
// inside delivery records; record fields are the only mutation point on the
// delivery path (runRec and the helpers below never write through shared
// state to adjust a route in flight). Its 32 bytes are part of DeliveryRec's
// layout budget (DESIGN §7.2): widest fields first, no padding hole.
type routeOpts struct {
	seq    uint64
	alg    int32
	origin MSSID // MSS that initiated the routed send (receives failures)
	// hops counts wireless delivery attempts so far: each stale re-route
	// after the destination moved in flight adds one. Observability only
	// (the EvDeliver event and the chase-hop histogram); never charged.
	hops int32
	// pair/seq implement the per-(MH,MH)-pair FIFO reorder buffer when the
	// final destination delivery came from SendMHToMH. hasPair marks the
	// pair key as set (the zero pairKey is a valid pair).
	pair    pairKey
	cat     cost.Category
	hasPair bool
	// toMSS makes the MSS serving the MH the final recipient (SendToMSSOfMH,
	// the paper's bare Csearch): the same locate-and-chase with no wireless
	// leg at the end, and never custody — the message is for a station.
	toMSS bool
}

type pairKey struct {
	from, to MHID
}

// pairState is the per-ordered-pair FIFO: the next sequence number to hand
// out, the next to deliver, and a window of what arrived ahead of it. An
// arrival at nextDeliver with nothing held dispatches at once and touches no
// window.
type pairState struct {
	nextSeq     uint64
	nextDeliver uint64
	// win[off+i] waits for sequence nextDeliver+i: a message that overtook
	// an earlier one, or a skipPairSeq tombstone. The window never ends in
	// an empty slot, so off == len(win) means nothing waits.
	win []deferredDelivery
	off int
}

// deferredDelivery is one window slot: empty, a held message, or a
// tombstone.
type deferredDelivery struct {
	alg   int32
	state slotState
	msg   Message
}

type slotState uint8

const (
	slotEmpty slotState = iota
	slotHeld
	slotSkip
)

func (e *Engine) pairState(key pairKey) *pairState {
	ps, ok := e.pairs[key]
	if !ok {
		ps = &pairState{}
		e.pairs[key] = ps
	}
	return ps
}

// hold puts d in the window slot of sequence seq ≥ nextDeliver, growing the
// window to reach it; a full array first slides its live slots to the front.
func (ps *pairState) hold(seq uint64, d deferredDelivery) {
	i := ps.off + int(seq-ps.nextDeliver)
	if i >= len(ps.win) {
		if i >= cap(ps.win) && ps.off > 0 {
			n := copy(ps.win, ps.win[ps.off:])
			clear(ps.win[n:])
			ps.win, i, ps.off = ps.win[:n], i-ps.off, 0
		}
		ps.win = slices.Grow(ps.win, i+1-len(ps.win))[:i+1]
	}
	ps.win[i] = d
}

// PairsHeld reports how many slots wait in the per-pair FIFO windows, held
// messages and tombstones alike: what arrived ahead of an earlier sequence
// number of its pair. A quiesced fault-free system holds zero.
func (e *Engine) PairsHeld() int {
	n := 0
	for _, ps := range e.pairs {
		for _, d := range ps.win[ps.off:] {
			if d.state != slotEmpty {
				n++
			}
		}
	}
	return n
}

// sendFixed transmits msg on the wired network. Self-sends are allowed and
// charged, matching the paper's unconditional Cfixed terms.
func (e *Engine) sendFixed(alg int32, from, to MSSID, msg Message, cat cost.Category) {
	e.checkMSS(from)
	e.checkMSS(to)
	e.meter.Charge(cat, cost.KindFixed)
	rec := e.newRec(opDispatchMSS)
	rec.mss = to
	rec.mss2 = from
	rec.msg = msg
	rec.opts.alg = alg
	e.transmitWired(from, to, rec)
}

// broadcastFixed sends msg from from to every other MSS.
func (e *Engine) broadcastFixed(alg int32, from MSSID, msg Message, cat cost.Category) {
	e.checkMSS(from)
	for i := 0; i < e.cfg.M; i++ {
		if MSSID(i) == from {
			continue
		}
		e.sendFixed(alg, from, MSSID(i), msg, cat)
	}
}

// sendToLocalMH delivers over the local wireless channel only.
func (e *Engine) sendToLocalMH(alg int32, from MSSID, mh MHID, msg Message, cat cost.Category) error {
	e.checkMSS(from)
	e.checkMH(mh)
	if !e.mss[from].local.has(mh) {
		return fmt.Errorf("engine: mh%d is not local to mss%d", int(mh), int(from))
	}
	e.wirelessDown(from, mh, msg, routeOpts{alg: alg, origin: from, cat: cat})
	return nil
}

// sendToMH routes msg to mh, searching as needed.
func (e *Engine) sendToMH(alg int32, from MSSID, mh MHID, msg Message, cat cost.Category) {
	e.checkMSS(from)
	e.checkMH(mh)
	e.routeToMH(from, mh, msg, routeOpts{alg: alg, origin: from, cat: cat}, false)
}

// routeToMH implements delivery with search and retry-across-moves, to the
// MH or (opts.toMSS) to the MSS serving it. via is the MSS currently holding
// the message. stale marks retries caused by the destination moving while
// the message was in flight; their search charges go to cost.CatStale so the
// primary accounting matches the paper's footnote-2 assumption.
func (e *Engine) routeToMH(via MSSID, mh MHID, msg Message, opts routeOpts, stale bool) {
	st := &e.mh[mh]
	switch st.status {
	case StatusInTransit:
		// The model guarantees the MH eventually joins some cell; park the
		// message until it does, then retry. No charge is incurred for
		// waiting.
		rec := e.newRec(opRouteResume)
		rec.mss = via
		rec.mh = mh
		rec.msg = msg
		rec.opts = opts
		rec.stale = stale
		e.addWaiter(mh, rec)

	case StatusDisconnected:
		// The MSS of the cell where the MH disconnected informs the
		// searcher of its status (Section 2). The search that discovered
		// this is charged.
		e.chargeSearch(opts, stale)
		e.bounce(st.at, mh, msg, opts)

	case StatusConnected:
		target := st.at
		if target != via {
			e.chargeSearch(opts, stale)
			rec := e.newRec(opRouteArrive)
			rec.mss = target
			rec.mh = mh
			rec.msg = msg
			rec.opts = opts
			e.transmitWired(via, target, rec)
			return
		}
		// Local delivery. Under the paper's pessimistic assumption ("any
		// message destined for a mobile host incurs a fixed search cost",
		// under which its analytic expressions are exact) every routed
		// delivery to a MH still pays Csearch.
		if e.cfg.SearchMode == SearchAbstract {
			e.chargeSearch(opts, stale)
		}
		if !opts.toMSS {
			e.wirelessDown(via, mh, msg, opts)
			return
		}
		// Through the substrate, not inline: the caller may be a handler of
		// this very station.
		rec := e.newRec(opDispatchMSS)
		rec.mss = target
		rec.mss2 = opts.origin
		rec.msg = msg
		rec.opts.alg = opts.alg
		e.sub.AfterRec(0, rec)

	default:
		panic(fmt.Sprintf("engine: mh%d in unknown status %d", int(mh), int(st.status)))
	}
}

// bounce disposes of a routed message that found mh disconnected, at the MSS
// holding its "disconnected" flag: one fixed control message either way —
// the handover to the custody hook when one is bound and takes the message
// for store-carry-forward (custody.go), else the notification to the sender.
func (e *Engine) bounce(holder MSSID, mh MHID, msg Message, opts routeOpts) {
	e.meter.Charge(cost.CatControl, cost.KindFixed)
	if e.custody != nil && !opts.toMSS && e.custody.OfferCustody(holder, mh, msg, CustodyRef{opts: opts}) {
		return
	}
	e.failToOrigin(holder, mh, msg, opts)
}

// failToOrigin sends the disconnected notification from holder to the MSS
// that initiated the routed send. The message will never deliver, so its
// pair sequence slot is freed now, at send time: the origin may itself be
// crashed and the notification discarded in flight, and pair state is
// global engine state, not something the origin must hear about.
func (e *Engine) failToOrigin(holder MSSID, mh MHID, msg Message, opts routeOpts) {
	e.skipPairSeq(opts)
	rec := e.newRec(opNotifyFailure)
	rec.mss = opts.origin
	rec.mh = mh
	rec.msg = msg
	rec.opts = opts
	e.transmitWired(holder, opts.origin, rec)
}

// reclassifyWastedWireless moves one wireless charge from cat to the stale
// account after the prefix rule discarded the transmission.
func (e *Engine) reclassifyWastedWireless(cat cost.Category) {
	if cat == cost.CatStale {
		return
	}
	e.meter.ChargeN(cat, cost.KindWireless, -1)
	e.meter.Charge(cost.CatStale, cost.KindWireless)
}

// chargeSearch records one search under the configured search mode.
func (e *Engine) chargeSearch(opts routeOpts, stale bool) {
	e.stats.Searches++
	e.event(obs.EvSearch, int32(opts.origin), boolOperand(stale), 0)
	cat := opts.cat
	if stale {
		cat = cost.CatStale
	}
	switch e.cfg.SearchMode {
	case SearchAbstract:
		e.meter.Charge(cat, cost.KindSearch)
	case SearchBroadcast:
		// Query every other MSS, one reply from the hosting MSS, one
		// forward of the payload. Message counts are charged here; the
		// wired legs' latency is already modelled by the forward hop in
		// routeToMH (queries proceed in parallel with it).
		e.meter.ChargeN(cat, cost.KindFixed, int64(e.cfg.M-1))
		e.meter.ChargeN(cat, cost.KindFixed, 2)
	default:
		panic(fmt.Sprintf("engine: unknown search mode %d", int(e.cfg.SearchMode)))
	}
}

// wirelessDown transmits msg from mss to mh over the cell's wireless
// channel. Prefix semantics: if the MH left the cell (or disconnected)
// before the transmission completes, the message is not delivered there; it
// is re-routed (or a failure is reported). The delivery-time check is
// downArrive.
func (e *Engine) wirelessDown(mss MSSID, mh MHID, msg Message, opts routeOpts) {
	e.meter.Charge(opts.cat, cost.KindWireless)
	rec := e.newRec(opDownArrive)
	rec.mss = mss
	rec.mh = mh
	rec.msg = msg
	rec.opts = opts
	e.transmitDown(mss, mh, rec)
}

// downArrive completes a wireless downlink transmission: the opDownArrive
// interpreter case. rec stays owned by the caller (StepRec frees it, or the
// ARQ sender queue holds it until acked); any mutation happens on rec's own
// fields before the route continues through fresh records.
func (e *Engine) downArrive(rec *DeliveryRec) {
	mss, mh := rec.mss, rec.mh
	st := &e.mh[mh]
	if st.status == StatusConnected && st.at == mss {
		e.meter.WirelessRx(int(mh))
		if st.dozing {
			e.stats.DozeInterruptions++
			e.stats.DozeInterruptionsByMH[mh]++
		}
		e.event(obs.EvDeliver, int32(mh), int32(mss), rec.opts.hops+1)
		e.deliverToMH(mh, rec.msg, rec.opts)
		return
	}
	if st.status == StatusDisconnected && st.at == mss {
		// Disconnected in this very cell before the transmission
		// completed: the transmission was wasted (reclassified as stale)
		// and the local MSS answers for the MH.
		e.reclassifyWastedWireless(rec.opts.cat)
		e.bounce(mss, mh, rec.msg, rec.opts)
		return
	}
	// Left the cell: the wireless message fell outside the received
	// prefix (Section 2). The wasted transmission moves to the stale
	// account (the paper's footnote-2 "second copy" case) and the
	// message is routed onwards from here; the eventual successful
	// delivery stays in the primary category, so primary accounting
	// charges exactly one delivery per message.
	e.reclassifyWastedWireless(rec.opts.cat)
	e.stats.StaleReroutes++
	rec.opts.hops++
	e.routeToMH(mss, mh, rec.msg, rec.opts, true)
}

// deliverToMH hands msg to the destination's handler, applying the
// per-pair FIFO for MH-to-MH traffic. A sequence below the cursor is a
// duplicate (ARQ and custody suppress them before this point) and is dropped.
func (e *Engine) deliverToMH(mh MHID, msg Message, opts routeOpts) {
	if !opts.hasPair {
		e.dispatchMH(opts.alg, mh, msg)
		return
	}
	ps := e.pairState(opts.pair)
	switch {
	case opts.seq < ps.nextDeliver:
		return
	case opts.seq == ps.nextDeliver && ps.off == len(ps.win):
		ps.nextDeliver++
		e.dispatchMH(opts.alg, mh, msg)
		return
	}
	ps.hold(opts.seq, deferredDelivery{alg: opts.alg, state: slotHeld, msg: msg})
	e.drainPair(opts.pair, ps)
}

// drainPair delivers the present prefix of a pair's window. Tombstones,
// left by skipPairSeq for sequence numbers that will never deliver (failed,
// expired, or dropped sends), advance the cursor without dispatching. Each
// slot leaves the window before its handler runs, which may reach this pair
// again.
func (e *Engine) drainPair(key pairKey, ps *pairState) {
	for ps.off < len(ps.win) && ps.win[ps.off].state != slotEmpty {
		d := ps.win[ps.off]
		ps.win[ps.off] = deferredDelivery{}
		if ps.off++; ps.off == len(ps.win) {
			ps.win, ps.off = ps.win[:0], 0
		}
		ps.nextDeliver++
		if d.state == slotHeld {
			e.dispatchMH(d.alg, key.to, d.msg)
		}
	}
}

// skipPairSeq tombstones a pair sequence number whose message will never
// be delivered, so the window does not wedge every later message of the
// pair behind the hole. No-op for unpaired traffic and for a sequence the
// cursor has passed.
func (e *Engine) skipPairSeq(opts routeOpts) {
	if !opts.hasPair {
		return
	}
	ps := e.pairState(opts.pair)
	if opts.seq < ps.nextDeliver {
		return
	}
	ps.hold(opts.seq, deferredDelivery{state: slotSkip})
	e.drainPair(opts.pair, ps)
}

// uplink is the gate every MH-originated send passes: between cells a MH
// "neither sends nor receives" (Section 2). From a connected MH it charges
// the uplink transmission and returns the cell it is made in, with send
// true: the caller builds its record and transmits. From a MH in transit
// it parks a replayOp record, carrying opts, that re-issues the send once
// the MH has joined a cell; from a disconnected one it reports an error.
// A MH that has just joined but whose parked records are not yet replayed
// (a join observer sending) parks too, behind them, so its sends leave in
// the order they were issued.
func (e *Engine) uplink(replayOp recOp, from MHID, via MSSID, to MHID, msg Message, opts routeOpts) (at MSSID, send bool, err error) {
	e.checkMH(from)
	st := &e.mh[from]
	switch st.status {
	case StatusDisconnected:
		return 0, false, fmt.Errorf("engine: mh%d is disconnected and cannot send", int(from))
	case StatusConnected:
		if e.waiters.len(from) == 0 {
			e.meter.Charge(opts.cat, cost.KindWireless)
			e.meter.WirelessTx(int(from))
			return st.at, true, nil
		}
		fallthrough
	case StatusInTransit:
		rec := e.newRec(replayOp)
		rec.mh = from
		rec.mss = via
		rec.mh2 = to
		rec.msg = msg
		rec.opts = opts
		e.addWaiter(from, rec)
		return 0, false, nil
	default:
		panic(fmt.Sprintf("engine: mh%d in unknown status %d", int(from), int(st.status)))
	}
}

// sendFromMH transmits msg from mh to its current local MSS.
func (e *Engine) sendFromMH(alg int32, mh MHID, msg Message, cat cost.Category) error {
	at, send, err := e.uplink(opSendFromMH, mh, 0, 0, msg, routeOpts{alg: alg, cat: cat})
	if !send {
		return err
	}
	// The message was transmitted before any subsequent leave(), so the MSS
	// of the cell it was sent in processes it.
	rec := e.newRec(opDispatchMSS)
	rec.mss = at
	rec.mh2, rec.flag = mh, true
	rec.msg = msg
	rec.opts.alg = alg
	e.transmitUp(mh, rec)
	return nil
}

// forwardViaMSS routes msg to MH `to` through the MSS a directory names:
// one fixed hop (charged unconditionally) then the wireless downlink. A
// stale directory entry falls back to a search charged to cost.CatStale
// (the opRouteArrive re-check at the named MSS).
func (e *Engine) forwardViaMSS(origin, via MSSID, to MHID, msg Message, opts routeOpts) {
	e.meter.Charge(opts.cat, cost.KindFixed)
	rec := e.newRec(opRouteArrive)
	rec.mss = via
	rec.mh = to
	rec.msg = msg
	rec.opts = opts
	e.transmitWired(origin, via, rec)
}

// sendToMHVia implements directory-routed MSS-to-MH messaging (a fixed
// proxy reaching its mobile host, Section 5).
func (e *Engine) sendToMHVia(alg int32, from, via MSSID, to MHID, msg Message, cat cost.Category) {
	e.checkMSS(from)
	e.checkMSS(via)
	e.checkMH(to)
	e.forwardViaMSS(from, via, to, msg, routeOpts{alg: alg, origin: from, cat: cat})
}

// sendMHViaMSS implements directory-routed MH-to-MH messaging: the sender
// believes `to` is located at `via` and routes there directly, with one
// fixed hop charged unconditionally (Section 4.2's 2·Cwireless + Cfixed per
// member). A stale directory entry falls back to a search charged to
// cost.CatStale.
func (e *Engine) sendMHViaMSS(alg int32, from MHID, via MSSID, to MHID, msg Message, cat cost.Category) error {
	e.checkMSS(via)
	e.checkMH(to)
	at, send, err := e.uplink(opSendMHViaMSS, from, via, to, msg, routeOpts{alg: alg, cat: cat})
	if !send {
		return err
	}
	rec := e.newRec(opUpForwardVia)
	rec.mss = via
	rec.mh = to
	rec.msg = msg
	rec.opts = routeOpts{alg: alg, origin: at, cat: cat}
	e.transmitUp(from, rec)
	return nil
}

// sendToMSSOfMH locates mh and delivers msg to the MSS currently serving it
// — the operation the paper prices at Csearch. If mh has disconnected the
// sender is notified via DeliveryFailureHandler.
func (e *Engine) sendToMSSOfMH(alg int32, from MSSID, mh MHID, msg Message, cat cost.Category) {
	e.checkMSS(from)
	e.checkMH(mh)
	e.routeToMH(from, mh, msg, routeOpts{alg: alg, origin: from, cat: cat, toMSS: true}, false)
}

// sendMHToMH implements MH-to-MH messaging: wireless uplink, routed
// forwarding with search, wireless downlink, with per-ordered-pair FIFO
// delivery. The pair sequence number is drawn when the send is issued,
// also when it waits for its travelling sender to join a cell, so that a
// send made at that join (by a join observer) cannot overtake it.
func (e *Engine) sendMHToMH(alg int32, from, to MHID, msg Message, cat cost.Category) error {
	e.checkMH(from)
	e.checkMH(to)
	key := pairKey{from: from, to: to}
	ps := e.pairState(key)
	opts := routeOpts{alg: alg, cat: cat, pair: key, hasPair: true, seq: ps.nextSeq}
	ps.nextSeq++
	if err := e.upRoute(from, to, msg, opts); err != nil {
		ps.nextSeq-- // a disconnected sender sent nothing: nothing drew since
		return err
	}
	return nil
}

// upRoute transmits a paired message whose sequence number opts carries,
// or parks it while its sender travels.
func (e *Engine) upRoute(from, to MHID, msg Message, opts routeOpts) error {
	at, send, err := e.uplink(opSendMHToMH, from, 0, to, msg, opts)
	if !send {
		return err
	}
	opts.origin = at
	rec := e.newRec(opUpRoute)
	rec.mss = at
	rec.mh = to
	rec.msg = msg
	rec.opts = opts
	e.transmitUp(from, rec)
	return nil
}

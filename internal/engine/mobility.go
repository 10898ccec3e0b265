package engine

import (
	"fmt"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// StatusError reports a mobility operation (move, disconnect, reconnect)
// rejected because the host's connectivity status does not permit it. The
// message is formatted lazily: churn workloads reject such operations by the
// million and almost always only test err != nil, so the constructor must
// not pay for fmt.
type StatusError struct {
	Op     string
	MH     MHID
	Status MHStatus
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("engine: mh%d cannot %s while %s", int(e.MH), e.Op, e.Status)
}

// Move initiates a cell switch: mh sends leave(r) to its current MSS,
// travels, then sends join(mh, prev) to the new cell's MSS. While between
// cells the MH neither sends nor receives (Section 2); routed messages park
// until the join completes. Moving to the current cell is a no-op.
func (e *Engine) Move(mh MHID, to MSSID) error {
	e.checkMH(mh)
	e.checkMSS(to)
	st := &e.mh[mh]
	if st.status != StatusConnected {
		return &StatusError{Op: "move", MH: mh, Status: st.status}
	}
	from := st.at
	if from == to {
		return nil
	}

	// leave(r): one wireless uplink transmission, control traffic.
	e.meter.Charge(cost.CatControl, cost.KindWireless)
	e.meter.WirelessTx(int(mh))
	st.status = StatusInTransit
	st.at = from // remembered as the previous cell for the join message

	rec := e.newRec(opLeave)
	rec.mh = mh
	rec.mss = from
	rec.mss2 = to
	e.transmitUp(mh, rec)
	return nil
}

// leaveArrive runs when leave(r) reaches the old cell's MSS: the opLeave
// interpreter case.
func (e *Engine) leaveArrive(mh MHID, from, to MSSID) {
	e.mss[from].local.remove(mh)
	e.event(obs.EvLeave, int32(mh), int32(from), 0)
	e.notifyLeave(from, mh)

	// The MH travels, then announces itself in the new cell. Joining is
	// sequenced after the leave is processed so a MH is never in two
	// local lists at once.
	travel := e.delay(e.cfg.Travel)
	rec := e.newRec(opCompleteJoin)
	rec.mh = mh
	rec.mss = to
	rec.mss2 = from
	e.sub.AfterRec(travel, rec)
}

// completeJoin performs the join(mh, prev) exchange in the new cell.
func (e *Engine) completeJoin(mh MHID, to, prev MSSID, wasDisconnected bool) {
	// join(mh-id, prev): one wireless uplink transmission in the new cell.
	e.meter.Charge(cost.CatControl, cost.KindWireless)
	e.meter.WirelessTx(int(mh))
	rec := e.newRec(opJoin)
	rec.mh = mh
	rec.mss = to
	rec.mss2 = prev
	rec.flag = wasDisconnected
	e.transmitUp(mh, rec)
}

// joinArrive runs when join(mh, prev) reaches the new cell's MSS: the
// opJoin interpreter case.
func (e *Engine) joinArrive(mh MHID, to, prev MSSID, wasDisconnected bool) {
	st := &e.mh[mh]
	e.mss[to].local.add(mh)
	st.status = StatusConnected
	st.at = to
	if !wasDisconnected {
		e.stats.Moves++
	}
	e.event(obs.EvJoin, int32(mh), int32(to), int32(prev))
	e.notifyJoin(to, mh, prev, wasDisconnected)
	e.fireWaiters(mh)
}

// Disconnect performs a voluntary disconnection: mh sends disconnect(r) to
// its local MSS, which removes it from the local list and sets the
// "disconnected" flag for it.
func (e *Engine) Disconnect(mh MHID) error {
	e.checkMH(mh)
	st := &e.mh[mh]
	if st.status != StatusConnected {
		return &StatusError{Op: "disconnect", MH: mh, Status: st.status}
	}
	at := st.at

	e.meter.Charge(cost.CatControl, cost.KindWireless)
	e.meter.WirelessTx(int(mh))
	// The MH is unreachable from the instant it decides to disconnect.
	st.status = StatusDisconnected

	rec := e.newRec(opDisconnect)
	rec.mh = mh
	rec.mss = at
	e.transmitUp(mh, rec)
	return nil
}

// disconnectArrive runs when disconnect(r) reaches the cell's MSS: the
// opDisconnect interpreter case.
func (e *Engine) disconnectArrive(mh MHID, at MSSID) {
	e.mss[at].local.remove(mh)
	e.mss[at].disconnected[mh] = true
	e.stats.Disconnects++
	e.event(obs.EvDisconnect, int32(mh), int32(at), 0)
	e.notifyDisconnect(at, mh)
}

// Reconnect re-attaches a disconnected MH at the given MSS with a
// reconnect(mh-id, prev mss-id) message. If knowsPrev is false the MH could
// not supply its previous location, and the new MSS queries every other
// fixed host to find it before running the handoff (Section 2).
func (e *Engine) Reconnect(mh MHID, at MSSID, knowsPrev bool) error {
	e.checkMH(mh)
	e.checkMSS(at)
	st := &e.mh[mh]
	if st.status != StatusDisconnected {
		return &StatusError{Op: "reconnect", MH: mh, Status: st.status}
	}
	prev := st.at

	// The MH is reconnecting: from the model's perspective it is between
	// cells until the handoff completes, so routed messages park rather
	// than bounce as disconnected, and duplicate Reconnect/Move/Disconnect
	// calls are rejected.
	st.status = StatusInTransit

	// reconnect(): one wireless uplink transmission in the new cell.
	e.meter.Charge(cost.CatControl, cost.KindWireless)
	e.meter.WirelessTx(int(mh))
	rec := e.newRec(opReconnect)
	rec.mh = mh
	rec.mss = at
	rec.mss2 = prev
	rec.flag = knowsPrev
	e.transmitUp(mh, rec)
	return nil
}

// reconnectArrive runs when reconnect(mh, prev) reaches the new cell's MSS:
// the opReconnect interpreter case.
func (e *Engine) reconnectArrive(mh MHID, at, prev MSSID, knowsPrev bool) {
	e.event(obs.EvReconnect, int32(mh), int32(at), int32(prev))
	e.runReconnectHandoff(mh, at, prev, knowsPrev)
}

// runReconnectHandoff executes the locate-and-handoff exchange at the new
// MSS: optionally a broadcast query for the previous location, then a
// request/reply with the previous MSS to clear the "disconnected" flag
// (opReconnectLocate → opHandoffReq → opHandoffReply).
func (e *Engine) runReconnectHandoff(mh MHID, at, prev MSSID, knowsPrev bool) {
	var locate sim.Time
	if !knowsPrev {
		// Query each other fixed host; only the flag holder replies.
		e.meter.ChargeN(cost.CatControl, cost.KindFixed, int64(e.cfg.M-1))
		e.meter.Charge(cost.CatControl, cost.KindFixed)
		locate = e.delay(e.cfg.Wired) + e.delay(e.cfg.Wired)
	}
	rec := e.newRec(opReconnectLocate)
	rec.mh = mh
	rec.mss = at
	rec.mss2 = prev
	e.sub.AfterRec(locate, rec)
}

// reconnectLocate sends the handoff request to the previous MSS once the
// (optional) locate query resolved: the opReconnectLocate interpreter case.
func (e *Engine) reconnectLocate(mh MHID, at, prev MSSID) {
	e.meter.Charge(cost.CatControl, cost.KindFixed)
	rec := e.newRec(opHandoffReq)
	rec.mh = mh
	rec.mss = at
	rec.mss2 = prev
	e.transmitWired(at, prev, rec)
}

// handoffReqArrive runs at the previous MSS: clear the "disconnected" flag
// and send the handoff reply back (the opHandoffReq interpreter case).
func (e *Engine) handoffReqArrive(mh MHID, at, prev MSSID) {
	delete(e.mss[prev].disconnected, mh)
	e.meter.Charge(cost.CatControl, cost.KindFixed)
	rec := e.newRec(opHandoffReply)
	rec.mh = mh
	rec.mss = at
	rec.mss2 = prev
	e.transmitWired(prev, at, rec)
}

// handoffReplyArrive finalizes the reconnection at the new MSS: the
// opHandoffReply interpreter case.
func (e *Engine) handoffReplyArrive(mh MHID, at, prev MSSID) {
	st := &e.mh[mh]
	e.mss[at].local.add(mh)
	st.status = StatusConnected
	st.at = at
	e.stats.Reconnects++
	e.event(obs.EvHandoff, int32(mh), int32(at), int32(prev))
	e.event(obs.EvJoin, int32(mh), int32(at), int32(prev))
	e.notifyJoin(at, mh, prev, true)
	e.fireWaiters(mh)
}

package rt

import "mobiledist/internal/core"

// Mobility operations are the engine's (see internal/engine/mobility.go),
// run on the executor. Move, Disconnect and Reconnect may be called from any
// goroutine after Start; they enqueue themselves and — matching this
// runtime's historical fire-and-forget surface — treat operations invalid in
// the MH's current status as no-ops.

// Move initiates a cell switch for mh.
func (h *Host) Move(mh core.MHID, to core.MSSID) {
	h.checkMH(mh)
	h.checkMSS(to)
	h.Do(func() { _ = h.eng.Move(mh, to) })
}

// Disconnect performs a voluntary disconnection of mh.
func (h *Host) Disconnect(mh core.MHID) {
	h.checkMH(mh)
	h.Do(func() { _ = h.eng.Disconnect(mh) })
}

// Reconnect re-attaches a disconnected mh at the given MSS. The MH supplies
// its previous location (knowsPrev), as the paper's common case.
func (h *Host) Reconnect(mh core.MHID, at core.MSSID) {
	h.checkMH(mh)
	h.checkMSS(at)
	h.Do(func() { _ = h.eng.Reconnect(mh, at, true) })
}

// Where reports the cell and status of mh (call via Do for a consistent
// snapshot, or after WaitIdle).
func (h *Host) Where(mh core.MHID) (core.MSSID, core.MHStatus) {
	return h.eng.Where(mh)
}

// SetDoze marks mh as dozing (or not); deliveries to a dozing MH still
// succeed but are counted in Stats. Call before Start or from inside Do.
func (h *Host) SetDoze(mh core.MHID, dozing bool) { h.eng.SetDoze(mh, dozing) }

// IsDozing reports whether mh is in doze mode (same calling rules as Where).
func (h *Host) IsDozing(mh core.MHID) bool { return h.eng.IsDozing(mh) }

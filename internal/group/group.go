// Package group implements the paper's three strategies for managing the
// location of a group of mobile hosts (Section 4):
//
//   - PureSearch (§4.1): no location state; a group message is a separate
//     searched point-to-point message to every member. Mobility is free,
//     every message pays (|G|−1)·(2·Cwireless + Csearch).
//   - AlwaysInform (§4.2): every member keeps a location directory LD(G)
//     with one entry per member; group messages route directly
//     ((|G|−1)·(2·Cwireless + Cfixed)), but every move broadcasts a
//     location update of the same cost, so the effective per-message cost
//     grows with the mobility-to-message ratio MOB/MSG.
//   - LocationView (§4.3): the proposed strategy. The static tier maintains
//     LV(G) — the set of MSSs hosting at least one member — serialized
//     through a coordinator MSS. Only significant moves (into a cell
//     outside the view, or the sole local member leaving a cell) update the
//     view, at most (|LV|+3)·Cfixed each; a group message costs
//     (|LV|−1)·Cfixed + |G|·Cwireless.
//
// All three implement Comm, so workloads and experiments swap them freely.
package group

import "mobiledist/internal/core"

// Comm is the common surface of the three group communication strategies.
type Comm interface {
	core.Algorithm
	// Send delivers payload to every group member other than from.
	Send(from core.MHID, payload any) error
	// Sent reports how many group messages have been initiated.
	Sent() int64
	// Delivered reports how many member deliveries have completed.
	Delivered() int64
}

// Options configure delivery callbacks shared by all strategies.
type Options struct {
	// OnDeliver fires for each copy of a group message delivered to a
	// member.
	OnDeliver func(at, from core.MHID, payload any)
}

// groupMsg is the common payload envelope for group traffic.
type groupMsg struct {
	From    core.MHID
	Payload any
}

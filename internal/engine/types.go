package engine

import "fmt"

// MSSID identifies a mobile support station (fixed host), in [0, M).
type MSSID int32

// MHID identifies a mobile host, in [0, N).
type MHID int32

// Message is an algorithm-defined payload exchanged between nodes.
type Message any

// From identifies the immediate sender of a message delivered to an MSS.
type From struct {
	MSS  MSSID // valid when !IsMH
	MH   MHID  // valid when IsMH
	IsMH bool
}

// String renders the sender address.
func (f From) String() string {
	if f.IsMH {
		return fmt.Sprintf("mh%d", int(f.MH))
	}
	return fmt.Sprintf("mss%d", int(f.MSS))
}

// MHStatus is the connectivity state of a mobile host.
type MHStatus uint8

// Mobile host connectivity states.
const (
	// StatusConnected means the MH is local to some cell.
	StatusConnected MHStatus = iota + 1
	// StatusInTransit means the MH has left its cell and not yet joined a
	// new one. The paper guarantees it will eventually join some cell.
	StatusInTransit
	// StatusDisconnected means the MH has voluntarily disconnected; its last
	// MSS holds a "disconnected" flag for it.
	StatusDisconnected
)

// String returns the status name.
func (s MHStatus) String() string {
	switch s {
	case StatusConnected:
		return "connected"
	case StatusInTransit:
		return "in-transit"
	case StatusDisconnected:
		return "disconnected"
	default:
		return fmt.Sprintf("MHStatus(%d)", int(s))
	}
}

// FailReason explains why a routed message could not be delivered to a MH.
type FailReason int

// Delivery failure reasons.
const (
	// FailDisconnected means the destination MH has disconnected; the MSS of
	// the cell where it disconnected informed the sender (Section 2).
	FailDisconnected FailReason = iota + 1
)

// String returns the reason name.
func (r FailReason) String() string {
	switch r {
	case FailDisconnected:
		return "disconnected"
	default:
		return fmt.Sprintf("FailReason(%d)", int(r))
	}
}

// SearchMode selects how the network locates a mobile host.
type SearchMode int

// Search modes.
const (
	// SearchAbstract charges the paper's fixed Csearch per search and uses
	// the network's location registry as the oracle. This is the
	// paper-faithful mode used by the experiment suite.
	SearchAbstract SearchMode = iota + 1
	// SearchBroadcast exchanges real messages: the searching MSS queries
	// every other MSS (M-1 fixed messages), the hosting MSS replies (one
	// fixed message), and the payload is forwarded (one fixed message). No
	// Csearch is charged; the cost shows up as fixed-channel traffic. Used
	// by the A1 ablation to exhibit the Csearch <= (M-1)*Cfixed bound.
	SearchBroadcast
)

// Algorithm is a distributed algorithm hosted on the two-tier network. The
// interface carries only identification; message handling and mobility
// hooks are optional capabilities declared by implementing the narrower
// interfaces below.
type Algorithm interface {
	// Name identifies the algorithm in reports and panics.
	Name() string
}

// MSSHandler receives messages addressed to MSS-side algorithm state.
type MSSHandler interface {
	HandleMSS(ctx Context, at MSSID, from From, msg Message)
}

// MHHandler receives messages delivered to a mobile host over its wireless
// link.
type MHHandler interface {
	HandleMH(ctx Context, at MHID, msg Message)
}

// TimerHandler receives the messages an algorithm sent itself with
// Context.After or Context.AfterDaemon, when their delay has passed.
type TimerHandler interface {
	HandleTimer(ctx Context, msg Message)
}

// JoinObserver is notified when mh completes a join at mss. prev is the
// MSS of the previous cell (supplied with the join message, Section 2), or
// -1 for the initial placement. wasDisconnected distinguishes reconnect()
// from an ordinary cell switch. Like every mobility callback it runs at
// the MSS processing the event, after the network's own bookkeeping, for
// every registered algorithm that implements it, in registration order.
type JoinObserver interface {
	OnJoin(ctx Context, mss MSSID, mh MHID, prev MSSID, wasDisconnected bool)
}

// LeaveObserver is notified when mss processes mh's leave() message.
type LeaveObserver interface {
	OnLeave(ctx Context, mss MSSID, mh MHID)
}

// DisconnectObserver is notified when mss processes mh's disconnect()
// message and has set the "disconnected" flag.
type DisconnectObserver interface {
	OnDisconnect(ctx Context, mss MSSID, mh MHID)
}

// CrashObserver is notified of a fault plan's station crashes the way a
// JoinObserver is notified of moves: every registered algorithm that
// implements it, in registration order, on the execution context, at the
// plan's instants (faults.Injector.Arm schedules them).
type CrashObserver interface {
	NoteCrash(mss MSSID)
}

// RestartObserver is notified, like a CrashObserver, when a crashed
// station restarts.
type RestartObserver interface {
	NoteRestart(mss MSSID)
}

// DeliveryFailureHandler is notified at the sending MSS when a message
// routed with SendToMH could not be delivered because the destination
// disconnected. The undelivered payload is returned so algorithms such as
// R2 can, for example, reclaim the token.
type DeliveryFailureHandler interface {
	OnDeliveryFailure(ctx Context, at MSSID, mh MHID, msg Message, reason FailReason)
}

// Registrar is implemented by network drivers (the simulation System in
// internal/core, the live runtime in internal/rt, and the Engine itself)
// that can host algorithms. Constructors of algorithm packages take a
// Registrar so the same implementations run on either substrate.
type Registrar interface {
	// Register attaches alg and returns the Context its handlers receive.
	Register(alg Algorithm) Context
}

// Package core binds the shared network engine (internal/engine) to the
// deterministic simulation kernel (internal/sim). The engine owns the
// paper's Section-2 system model — MSS/MH registries and status machine,
// FIFO wired and wireless channels, routing with search and retry, the
// leave/join/disconnect/reconnect mobility protocol with handoff hooks,
// and cost accounting; this package contributes only the substrate: virtual
// time, event scheduling, and flat per-channel FIFO arrival clamping on the
// kernel's event queue.
//
// Algorithms are written against the engine's Context interface (re-exported
// here), so this deterministic driver and the goroutine-based live runtime
// in internal/rt host the same implementations. Per-node algorithm state
// must live in per-node slots (slices indexed by id) so that in the live
// runtime each slot is touched only by its owning node's goroutine.
//
// The model vocabulary (ids, statuses, handler interfaces, Context) is
// defined once in internal/engine and aliased here, so existing importers
// keep using core.MHID, core.Context, and friends unchanged.
package core

import (
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// Model vocabulary, owned by internal/engine and re-exported for importers.
type (
	// MSSID identifies a mobile support station (fixed host), in [0, M).
	MSSID = engine.MSSID
	// MHID identifies a mobile host, in [0, N).
	MHID = engine.MHID
	// Message is an algorithm-defined payload exchanged between nodes.
	Message = engine.Message
	// From identifies the immediate sender of a message delivered to an MSS.
	From = engine.From
	// MHStatus is the connectivity state of a mobile host.
	MHStatus = engine.MHStatus
	// FailReason explains why a routed message could not be delivered.
	FailReason = engine.FailReason
	// SearchMode selects how the network locates a mobile host.
	SearchMode = engine.SearchMode
	// Delay is an inclusive range of virtual-time latencies.
	Delay = engine.Delay
	// Stats are model-level counters kept outside the cost meter.
	Stats = engine.Stats

	// Algorithm is a distributed algorithm hosted on the two-tier network.
	Algorithm = engine.Algorithm
	// MSSHandler receives messages addressed to MSS-side algorithm state.
	MSSHandler = engine.MSSHandler
	// MHHandler receives messages delivered to a mobile host.
	MHHandler = engine.MHHandler
	// TimerHandler receives the messages an algorithm sent itself with
	// Context.After.
	TimerHandler = engine.TimerHandler
	// JoinObserver, LeaveObserver and DisconnectObserver are notified of
	// the mobility protocol's events.
	JoinObserver       = engine.JoinObserver
	LeaveObserver      = engine.LeaveObserver
	DisconnectObserver = engine.DisconnectObserver
	// CrashObserver and RestartObserver are notified of planned station
	// crashes and restarts.
	CrashObserver   = engine.CrashObserver
	RestartObserver = engine.RestartObserver
	// DeliveryFailureHandler is notified of failed routed deliveries.
	DeliveryFailureHandler = engine.DeliveryFailureHandler
	// Context is the capability surface algorithms use to interact with the
	// network. Both substrates hand out the engine's single implementation.
	Context = engine.Context
	// Registrar is implemented by network drivers that can host algorithms.
	Registrar = engine.Registrar
	// Participants is the set of mobile hosts one algorithm runs over.
	Participants = engine.Participants
)

// Mobile host connectivity states.
const (
	StatusConnected    = engine.StatusConnected
	StatusInTransit    = engine.StatusInTransit
	StatusDisconnected = engine.StatusDisconnected
)

// Delivery failure reasons.
const (
	FailDisconnected = engine.FailDisconnected
)

// Search modes.
const (
	SearchAbstract  = engine.SearchAbstract
	SearchBroadcast = engine.SearchBroadcast
)

// FixedDelay returns a degenerate range with a single value.
func FixedDelay(d sim.Time) Delay { return engine.FixedDelay(d) }

// NewParticipants checks an algorithm's host list and fixes its slots and
// initial cells before the algorithm registers (engine.NewParticipants).
func NewParticipants(reg Registrar, hosts []MHID) (*Participants, error) {
	return engine.NewParticipants(reg, hosts)
}

// AllMHs lists every mobile host of a network with n hosts, 0 to n-1.
func AllMHs(n int) []MHID { return engine.AllMHs(n) }

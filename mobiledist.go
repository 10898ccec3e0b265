// Package mobiledist is a Go reproduction of "Structuring Distributed
// Algorithms for Mobile Hosts" (Badrinath, Acharya, Imielinski — ICDCS
// 1994).
//
// The library provides:
//
//   - the paper's two-tier operational system model: M mobile support
//     stations (MSSs) on a wired network, N mobile hosts (MHs) attaching to
//     one cell at a time, with the Cfixed / Cwireless / Csearch cost model,
//     FIFO channels, and the leave/join/disconnect/reconnect protocol
//     (Section 2);
//   - the restructured mutual-exclusion algorithms: Lamport's algorithm on
//     MHs (L1) and on MSSs (L2), and the token ring on MHs (R1) and MSSs
//     (R2, R2′, R2″) (Section 3);
//   - group location management: pure search, always inform, and the
//     proposed location view LV(G) (Section 4);
//   - the proxy framework decoupling mobility from algorithm design, with
//     home and local proxy scopes and an adapter lifting any static
//     message-passing algorithm to mobile participants (Section 5);
//   - deterministic simulation with exact message-cost accounting, seeded
//     workload generators, and an experiment suite regenerating every
//     comparison in the paper (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	sys := mobiledist.MustNewSystem(mobiledist.DefaultConfig(4, 16))
//	l2 := mobiledist.NewL2(sys, mobiledist.MutexOptions{Hold: 10})
//	_ = l2.Request(mobiledist.MHID(3))
//	_ = sys.Run()
//	fmt.Print(sys.Meter().Report(sys.Config().Params))
//
// The facade re-exports the library's packages under one import; the
// examples/ directory holds runnable scenarios and cmd/mobilexp
// regenerates the paper's evaluation tables.
package mobiledist

import (
	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// Identifier and model types (Section 2).
type (
	// MSSID identifies a mobile support station (fixed host).
	MSSID = core.MSSID
	// MHID identifies a mobile host.
	MHID = core.MHID
	// MHStatus is a mobile host's connectivity state.
	MHStatus = core.MHStatus
	// Message is an algorithm-defined payload.
	Message = core.Message
	// From identifies a message's immediate sender.
	From = core.From
	// Config describes a two-tier network instance: the model parameters
	// (M, N, Params, the Wired/Wireless/Travel latency ranges, SearchMode,
	// ReliableWireless, Obs, … — the fields of the embedded engine
	// configuration, declared once for every driver) plus the simulator's
	// own Seed, Faults, StepLimit and Shards. Start from DefaultConfig and
	// assign fields.
	Config = core.Config
	// Delay is an inclusive latency range.
	Delay = core.Delay
	// System is the deterministic simulation driver.
	System = core.System
	// Context is the capability surface algorithms program against.
	Context = core.Context
	// Registrar hosts algorithms (implemented by System).
	Registrar = core.Registrar
	// Algorithm is a hosted distributed algorithm.
	Algorithm = core.Algorithm
	// Stats are model-level counters.
	Stats = core.Stats
	// SearchMode selects the search service.
	SearchMode = core.SearchMode
	// FailReason explains a delivery failure.
	FailReason = core.FailReason
	// Time is virtual simulation time.
	Time = sim.Time
)

// Connectivity states.
const (
	StatusConnected    = core.StatusConnected
	StatusInTransit    = core.StatusInTransit
	StatusDisconnected = core.StatusDisconnected
)

// Search modes.
const (
	SearchAbstract  = core.SearchAbstract
	SearchBroadcast = core.SearchBroadcast
)

// Fault-injection vocabulary (chaos testing; see internal/faults).
type (
	// FaultPlan is a declarative, seeded fault schedule: wireless loss
	// rates, link flaps, and MSS crash/restart windows. Attach one via
	// Config.Faults or process-wide via SetDefaultFaultPlan.
	FaultPlan = core.FaultPlan
	// LinkFaults are per-transmission wireless fault probabilities.
	LinkFaults = core.LinkFaults
	// Flap is a timed wireless outage of one cell.
	Flap = core.Flap
	// Crash is a timed MSS failure (with optional restart).
	Crash = core.Crash
)

// SetDefaultFaultPlan makes every DefaultConfig-built system run under the
// given fault plan (nil restores fault-free defaults). Set it during
// process setup, before building systems.
func SetDefaultFaultPlan(p *FaultPlan) { core.SetDefaultFaultPlan(p) }

// DefaultFaultPlan returns the plan DefaultConfig currently attaches.
func DefaultFaultPlan() *FaultPlan { return core.DefaultFaultPlan() }

// Cost model types (Section 2).
type (
	// CostParams holds Cfixed, Cwireless and Csearch.
	CostParams = cost.Params
	// Meter accumulates message counts and energy.
	Meter = cost.Meter
	// CostKind is a channel kind.
	CostKind = cost.Kind
	// CostCategory is an accounting category.
	CostCategory = cost.Category
)

// Channel kinds and accounting categories.
const (
	KindFixed    = cost.KindFixed
	KindWireless = cost.KindWireless
	KindSearch   = cost.KindSearch

	CatAlgorithm = cost.CatAlgorithm
	CatControl   = cost.CatControl
	CatLocation  = cost.CatLocation
	CatStale     = cost.CatStale
)

// NewSystem builds a two-tier network from cfg.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// MustNewSystem is NewSystem panicking on configuration errors.
func MustNewSystem(cfg Config) *System { return core.MustNewSystem(cfg) }

// DefaultConfig returns a paper-faithful configuration for m stations and n
// mobile hosts.
func DefaultConfig(m, n int) Config { return core.DefaultConfig(m, n) }

// DefaultCostParams returns the cost constants used by the experiment
// suite.
func DefaultCostParams() CostParams { return cost.DefaultParams() }

// FixedDelay returns a degenerate latency range.
func FixedDelay(d Time) Delay { return core.FixedDelay(d) }

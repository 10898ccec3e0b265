package mobiledist

import (
	"mobiledist/internal/core"
	"mobiledist/internal/group"
	"mobiledist/internal/mutex/lamport"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/proxy"
)

// Mutual exclusion (Section 3).
type (
	// MutexOptions configure the Lamport-family algorithms' critical
	// section behaviour.
	MutexOptions = lamport.Options
	// L1 is Lamport's mutual exclusion run directly on the mobile hosts.
	L1 = lamport.L1
	// L2 is the paper's restructured Lamport algorithm run by the MSSs.
	L2 = lamport.L2
	// RingOptions configure the ring-family algorithms' critical section
	// behaviour.
	RingOptions = ring.Options
	// R1 is the token ring formed by the mobile hosts.
	R1 = ring.R1
	// R2 is the token ring formed by the support stations (all variants).
	R2 = ring.R2
	// RingVariant selects among R2, R2′ and R2″.
	RingVariant = ring.Variant
)

// R2 variants.
const (
	// R2Plain grants every pending request on token arrival.
	R2Plain = ring.VariantPlain
	// R2Counter (R2′) bounds each MH to one access per traversal via the
	// token-val counter.
	R2Counter = ring.VariantCounter
	// R2List (R2″) uses the token-carried (MSS, MH) list, robust against a
	// malicious MH.
	R2List = ring.VariantList
)

// NewL1 registers Lamport's algorithm over the given mobile participants.
func NewL1(reg Registrar, participants []MHID, opts MutexOptions) (*L1, error) {
	return lamport.NewL1(reg, participants, opts)
}

// NewL2 registers the MSS-hosted Lamport algorithm.
func NewL2(reg Registrar, opts MutexOptions) *L2 {
	return lamport.NewL2(reg, opts)
}

// NewR1 registers the MH token ring. maxTraversals parks the token after
// that many rounds (0 = circulate forever); repairSkip reroutes the token
// around disconnected members instead of stalling.
func NewR1(reg Registrar, ringOrder []MHID, opts RingOptions, repairSkip bool, maxTraversals int64) (*R1, error) {
	return ring.NewR1(reg, ringOrder, opts, repairSkip, maxTraversals)
}

// NewR2 registers an MSS token ring of the given variant. lie selects
// malicious MHs that under-report their access count (nil for none).
func NewR2(reg Registrar, variant RingVariant, opts RingOptions, maxTraversals int64, lie func(MHID) bool) (*R2, error) {
	return ring.NewR2(reg, variant, opts, maxTraversals, lie)
}

// Group location management (Section 4).
type (
	// GroupComm is the common surface of the three strategies.
	GroupComm = group.Comm
	// GroupOptions configure delivery callbacks.
	GroupOptions = group.Options
	// PureSearch is the search-on-demand strategy (§4.1).
	PureSearch = group.PureSearch
	// AlwaysInform is the location-directory strategy (§4.2).
	AlwaysInform = group.AlwaysInform
	// LocationView is the paper's proposed LV(G) strategy (§4.3).
	LocationView = group.LocationView
	// LocationViewOptions extend GroupOptions for LocationView.
	LocationViewOptions = group.LocationViewOptions
)

// NewPureSearch registers a pure-search group.
func NewPureSearch(reg Registrar, members []MHID, opts GroupOptions) (*PureSearch, error) {
	return group.NewPureSearch(reg, members, opts)
}

// NewAlwaysInform registers an always-inform group.
func NewAlwaysInform(reg Registrar, members []MHID, opts GroupOptions) (*AlwaysInform, error) {
	return group.NewAlwaysInform(reg, members, opts)
}

// NewLocationView registers a location-view group.
func NewLocationView(reg Registrar, members []MHID, opts LocationViewOptions) (*LocationView, error) {
	return group.NewLocationView(reg, members, opts)
}

// Proxy framework (Section 5).
type (
	// ProxyScope selects how MHs map to proxies.
	ProxyScope = proxy.ScopeKind
	// ProxyOptions configure a proxy runtime.
	ProxyOptions = proxy.Options
	// ProxyRuntime hosts a StaticAlgorithm at the participants' proxies.
	ProxyRuntime = proxy.Runtime
	// ProxyEnv is the environment static processes communicate through.
	ProxyEnv = proxy.Env
	// StaticAlgorithm is a mobility-oblivious message-passing algorithm.
	StaticAlgorithm = proxy.StaticAlgorithm
	// StaticMutex is Lamport's mutex written as a StaticAlgorithm.
	StaticMutex = proxy.StaticMutex
	// StaticMutexOptions configure a StaticMutex.
	StaticMutexOptions = proxy.MutexOptions
	// StaticEcho is an echo (gather/broadcast) round written as a
	// StaticAlgorithm — a second demonstration that the adapter is
	// algorithm-agnostic.
	StaticEcho = proxy.StaticEcho
	// StartEchoInput asks a StaticEcho process to initiate a round.
	StartEchoInput = proxy.StartEchoInput
	// EchoRoundComplete is StaticEcho's output to every mobile host.
	EchoRoundComplete = proxy.RoundComplete
)

// Proxy scopes.
const (
	// ScopeLocal makes the current MSS the proxy (handoffs on moves).
	ScopeLocal = proxy.ScopeLocal
	// ScopeHome fixes the proxy for the MH's lifetime (informed of moves).
	ScopeHome = proxy.ScopeHome
)

// NewProxyRuntime registers a proxy runtime hosting alg for participants.
func NewProxyRuntime(reg Registrar, alg StaticAlgorithm, participants []MHID, opts ProxyOptions) (*ProxyRuntime, error) {
	return proxy.New(reg, alg, participants, opts)
}

// NewStaticMutex builds a Lamport mutex over procs static processes.
func NewStaticMutex(procs int, opts StaticMutexOptions) (*StaticMutex, error) {
	return proxy.NewStaticMutex(procs, opts)
}

// ProxyRequestInput returns the input a mobile host submits to request the
// critical section from a proxied StaticMutex.
func ProxyRequestInput() any { return proxy.RequestInput{} }

// NewStaticEcho builds an echo-round algorithm for the proxy runtime.
func NewStaticEcho() *StaticEcho { return proxy.NewStaticEcho() }

// AllMHs enumerates every mobile host id of a system with n MHs, a
// convenience for participant lists.
func AllMHs(n int) []MHID { return core.AllMHs(n) }

// Package proxy implements the paper's Section-5 framework for decoupling
// host mobility from the design of a distributed algorithm.
//
// Every mobile host is associated with a *proxy* on the static network —
// the MSS that participates in distributed computations on its behalf. A
// proxy association is characterised by two parameters:
//
//   - Scope: which MHs map to a given proxy. With ScopeLocal the proxy is
//     always the MH's current MSS (as in algorithms L2 and R2); with
//     ScopeHome a fixed proxy is associated with the MH for its lifetime
//     and is informed of every move.
//   - Obligations: what the proxy does when its MH leaves mid-computation.
//     A local proxy searches for the departed MH when a result is ready
//     (the L2 obligation); a home proxy forwards results through its
//     location record.
//
// The Runtime lifts any StaticAlgorithm — an algorithm written for static,
// message-passing processes — to mobile participants by executing process p
// at the proxy of MH p. With ScopeHome this achieves the paper's "total
// separation of mobility from the algorithm" at the price of per-move
// inform traffic; with ScopeLocal no inform traffic flows, but
// inter-process messages pay search costs and handoffs migrate state.
package proxy

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// ScopeKind selects how mobile hosts map to proxies.
type ScopeKind int

// Proxy scopes.
const (
	// ScopeLocal makes the MH's current MSS its proxy; moving hands the
	// proxy state over to the new MSS.
	ScopeLocal ScopeKind = iota + 1
	// ScopeHome fixes the proxy at the MH's initial MSS for its lifetime;
	// every move is reported to the proxy.
	ScopeHome
)

// String returns the scope name.
func (k ScopeKind) String() string {
	switch k {
	case ScopeLocal:
		return "local"
	case ScopeHome:
		return "home"
	default:
		return fmt.Sprintf("ScopeKind(%d)", int(k))
	}
}

// Env is the environment a StaticAlgorithm's processes use to communicate.
// The proxy runtime implements it; processes never observe mobility.
type Env interface {
	// Procs returns the number of processes.
	Procs() int
	// Send delivers msg from process from to process to (asynchronously,
	// FIFO per ordered pair).
	Send(from, to int, msg any)
	// Output delivers out to the mobile host behind process p.
	Output(p int, out any)
	// After sends msg from process p to itself after d: it arrives as
	// Handle(env, p, p, msg), so a timer is a message like any other.
	After(d sim.Time, p int, msg any)
}

// StaticAlgorithm is a distributed algorithm written for static
// message-passing processes, oblivious to mobility. One process runs per
// participating MH, hosted at that MH's proxy.
type StaticAlgorithm interface {
	// Name identifies the algorithm.
	Name() string
	// Handle processes a message from a peer process.
	Handle(env Env, p, from int, msg any)
	// Input processes a request arriving from process p's mobile host.
	Input(env Env, p int, input any)
}

// Options configure a proxy runtime.
type Options struct {
	// Scope selects the proxy association.
	Scope ScopeKind
	// InformEvery, under ScopeHome, reports only every k-th move to the
	// proxy (k >= 1; 0 behaves as 1). The paper closes Section 5 observing
	// that informing the proxy of *every* move "may be infeasible from a
	// practical standpoint" for fast movers; lazy informing trades inform
	// traffic for occasional stale-location searches on output delivery.
	InformEvery int
	// OnOutput fires when an algorithm output reaches its mobile host.
	OnOutput func(mh core.MHID, out any)
}

// Protocol messages of the proxy runtime.
type (
	// pxInput carries a MH's input up to its local MSS.
	pxInput struct {
		In any
	}

	// pxInputFwd forwards an input from the receiving MSS to a home proxy.
	pxInputFwd struct {
		Proc int
		In   any
	}

	// pxProc is an inter-process message between proxies.
	pxProc struct {
		FromProc, ToProc int
		M                any
	}

	// pxOutput carries an algorithm output down to the mobile host.
	pxOutput struct {
		Out any
	}

	// pxMoveReport tells a home proxy where its MH now is.
	pxMoveReport struct {
		Proc int
		At   core.MSSID
	}

	// pxHandoffReq asks the previous proxy for process state (local scope).
	pxHandoffReq struct {
		Proc   int
		NewMSS core.MSSID
	}

	// pxHandoffState carries the (logical) process state to the new proxy.
	pxHandoffState struct {
		Proc int
	}

	// pxTimer is a message process Proc sent itself with Env.After.
	pxTimer struct {
		Proc int
		M    any
	}
)

// Runtime hosts a StaticAlgorithm's processes at the proxies of the
// participating mobile hosts.
type Runtime struct {
	ctx  core.Context
	alg  StaticAlgorithm
	opts Options
	// procs maps process p to the MH in slot p.
	procs *core.Participants

	// host is where each process currently executes: the fixed home proxy
	// under ScopeHome, the MH's current MSS under ScopeLocal.
	host []core.MSSID
	// lastLoc is the home proxy's record of its MH's location (ScopeHome).
	lastLoc []core.MSSID
	// movesSinceReport drives lazy informing (ScopeHome, InformEvery > 1).
	movesSinceReport []int

	moveReports int64
	handoffs    int64
	outputs     int64
}

var (
	_ core.Algorithm    = (*Runtime)(nil)
	_ core.MSSHandler   = (*Runtime)(nil)
	_ core.MHHandler    = (*Runtime)(nil)
	_ core.JoinObserver = (*Runtime)(nil)
	_ core.TimerHandler = (*Runtime)(nil)
	_ Env               = (*Runtime)(nil)
)

// New registers a proxy runtime hosting alg for the given participants.
// Under ScopeHome each MH's initial MSS becomes its lifetime proxy.
func New(reg core.Registrar, alg StaticAlgorithm, participants []core.MHID, opts Options) (*Runtime, error) {
	if alg == nil {
		return nil, fmt.Errorf("proxy: nil algorithm")
	}
	switch opts.Scope {
	case ScopeLocal, ScopeHome:
	default:
		return nil, fmt.Errorf("proxy: unknown scope %d", int(opts.Scope))
	}
	if opts.InformEvery < 0 {
		return nil, fmt.Errorf("proxy: negative InformEvery")
	}
	procs, err := core.NewParticipants(reg, participants)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	r := &Runtime{alg: alg, opts: opts, procs: procs}
	if r.opts.InformEvery == 0 {
		r.opts.InformEvery = 1
	}
	r.ctx = reg.Register(r)
	n := procs.Len()
	r.host = make([]core.MSSID, n)
	r.lastLoc = make([]core.MSSID, n)
	r.movesSinceReport = make([]int, n)
	for p := range r.host {
		// A process whose MH is not connected starts at mss0.
		if at, ok := procs.Cell(p); ok {
			r.host[p], r.lastLoc[p] = at, at
		}
	}
	return r, nil
}

// Name implements core.Algorithm.
func (r *Runtime) Name() string { return "proxy/" + r.opts.Scope.String() + "/" + r.alg.Name() }

// MoveReports reports location reports sent to home proxies.
func (r *Runtime) MoveReports() int64 { return r.moveReports }

// Handoffs reports proxy-state handoffs between MSSs (local scope).
func (r *Runtime) Handoffs() int64 { return r.handoffs }

// Outputs reports algorithm outputs delivered to mobile hosts.
func (r *Runtime) Outputs() int64 { return r.outputs }

// Input submits input from mh to its process.
func (r *Runtime) Input(mh core.MHID, input any) error {
	if _, ok := r.procs.Slot(mh); !ok {
		return fmt.Errorf("proxy: mh%d is not a participant", int(mh))
	}
	if err := r.ctx.SendFromMH(mh, pxInput{In: input}, cost.CatAlgorithm); err != nil {
		return fmt.Errorf("proxy: input: %w", err)
	}
	return nil
}

// HandleMSS implements core.MSSHandler.
func (r *Runtime) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
	switch m := msg.(type) {
	case pxInput:
		if !from.IsMH {
			panic("proxy: pxInput must come from a MH")
		}
		p, ok := r.procs.Slot(from.MH)
		if !ok {
			panic(fmt.Sprintf("proxy: input from non-participant mh%d", int(from.MH)))
		}
		if r.opts.Scope == ScopeHome && r.host[p] != at {
			// Forward the input to the lifetime proxy.
			ctx.SendFixed(at, r.host[p], pxInputFwd{Proc: p, In: m.In}, cost.CatAlgorithm)
			return
		}
		r.alg.Input(r, p, m.In)
	case pxInputFwd:
		r.alg.Input(r, m.Proc, m.In)
	case pxProc:
		r.alg.Handle(r, m.ToProc, m.FromProc, m.M)
	case pxMoveReport:
		r.lastLoc[m.Proc] = m.At
	case pxHandoffReq:
		if r.host[m.Proc] == at {
			// This MSS holds the process state; ship it to the new proxy.
			ctx.SendFixed(at, m.NewMSS, pxHandoffState{Proc: m.Proc}, cost.CatLocation)
			return
		}
		// The state moved on before this request arrived (a rapid second
		// move); chase it.
		ctx.SendFixed(at, r.host[m.Proc], m, cost.CatLocation)
	case pxHandoffState:
		r.host[m.Proc] = at
		r.handoffs++
	default:
		panic(fmt.Sprintf("proxy: MSS received unexpected message %T", msg))
	}
}

// HandleMH implements core.MHHandler.
func (r *Runtime) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	m, ok := msg.(pxOutput)
	if !ok {
		panic(fmt.Sprintf("proxy: MH received unexpected message %T", msg))
	}
	r.outputs++
	if r.opts.OnOutput != nil {
		r.opts.OnOutput(at, m.Out)
	}
}

// OnJoin implements core.JoinObserver: home proxies are informed of the
// move; local proxies hand process state over to the new MSS.
func (r *Runtime) OnJoin(ctx core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, wasDisconnected bool) {
	p, ok := r.procs.Slot(mh)
	if !ok {
		return
	}
	switch r.opts.Scope {
	case ScopeHome:
		r.movesSinceReport[p]++
		if r.movesSinceReport[p] < r.opts.InformEvery {
			return // lazy informing: skip this move's report
		}
		r.movesSinceReport[p] = 0
		r.moveReports++
		ctx.SendFixed(mss, r.host[p], pxMoveReport{Proc: p, At: mss}, cost.CatLocation)
	case ScopeLocal:
		// New MSS requests the process state from the previous proxy; the
		// pxHandoffReq is addressed to the previous *cell* which relays to
		// wherever the state actually is (it may lag by a move).
		ctx.SendFixed(mss, prev, pxHandoffReq{Proc: p, NewMSS: mss}, cost.CatLocation)
	}
}

// Procs implements Env.
func (r *Runtime) Procs() int { return r.procs.Len() }

// Send implements Env: inter-process messages travel proxy to proxy. Under
// ScopeHome both endpoints are fixed, so this is one Cfixed hop; under
// ScopeLocal the destination proxy moves with its MH and must be located,
// so the message is routed with a search to the MH's current MSS.
func (r *Runtime) Send(from, to int, msg any) {
	m := pxProc{FromProc: from, ToProc: to, M: msg}
	switch r.opts.Scope {
	case ScopeHome:
		r.ctx.SendFixed(r.host[from], r.host[to], m, cost.CatAlgorithm)
	case ScopeLocal:
		r.ctx.SendToMSSOfMH(r.host[from], r.procs.Host(to), m, cost.CatAlgorithm)
	}
}

// Output implements Env: results travel from the proxy to the mobile host.
// A home proxy routes through its location record (no search); a local
// proxy delivers over its own cell or, if the MH left meanwhile, honours
// its obligation and searches for it.
func (r *Runtime) Output(p int, out any) {
	mh := r.procs.Host(p)
	m := pxOutput{Out: out}
	switch r.opts.Scope {
	case ScopeHome:
		r.ctx.SendToMHVia(r.host[p], r.lastLoc[p], mh, m, cost.CatAlgorithm)
	case ScopeLocal:
		if err := r.ctx.SendToLocalMH(r.host[p], mh, m, cost.CatAlgorithm); err != nil {
			r.ctx.SendToMH(r.host[p], mh, m, cost.CatAlgorithm)
		}
	}
}

// After implements Env.
func (r *Runtime) After(d sim.Time, p int, msg any) { r.ctx.After(d, pxTimer{Proc: p, M: msg}) }

// HandleTimer implements core.TimerHandler: a process's message to itself
// is due.
func (r *Runtime) HandleTimer(_ core.Context, msg core.Message) {
	m := msg.(pxTimer)
	r.alg.Handle(r, m.Proc, m.Proc, m.M)
}

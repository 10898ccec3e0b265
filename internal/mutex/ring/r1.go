// Package ring implements token-based distributed mutual exclusion on a
// unidirectional logical ring after Le Lann [12], in the variants the paper
// analyses (Section 3.1.2):
//
//   - R1 arranges the N mobile hosts themselves in the ring. Every token
//     hop is a MH-to-MH message (2·Cwireless + Csearch), a traversal costs
//     the same however many requests it satisfies, every MH is interrupted
//     by the token, and a single disconnected MH stalls the ring.
//   - R2 arranges the M support stations in the ring. What is left here is
//     the ring: each MSS's request and grant queues, the admission rule,
//     the traversal count and token recovery (r2recovery.go). Each grant
//     lends the token to its MH through mutex.Round, ticketed by the token
//     value.
//   - R2′ adds the token-val counter so each MH accesses the token at most
//     once per traversal.
//   - R2″ replaces the MH-reported counter with a token-carried list of
//     (MSS, MH) pairs, defeating a "malicious" MH that under-reports its
//     access count.
package ring

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex"
	"mobiledist/internal/sim"
)

// Options configure critical-section behaviour for both R1 and R2.
type Options struct {
	// Hold is how long a MH keeps the token inside the critical section.
	Hold sim.Time
	// OnEnter fires when mh enters the critical section.
	OnEnter func(mh core.MHID)
	// OnExit fires when mh leaves the critical section.
	OnExit func(mh core.MHID)
	// Recovery, when non-nil, enables token-loss detection and regeneration
	// for the R2 family (see TokenRecovery). R1 ignores it: the paper's
	// remedy for R1 is ring repair, not token election.
	Recovery *TokenRecovery
}

// cs is the critical-section part of o.
func (o Options) cs() mutex.Options {
	return mutex.Options{Hold: o.Hold, OnEnter: o.OnEnter, OnExit: o.OnExit}
}

// r1Token is the circulating token of algorithm R1.
type r1Token struct {
	Traversals int64
}

// R1 is Le Lann's algorithm run directly on the mobile hosts.
type R1 struct {
	hold
	ctx core.Context
	// ring is the logical ring: slot i's successor is slot i+1.
	ring *core.Participants

	// RepairSkip, when set at construction, reroutes the token around a
	// disconnected MH instead of stalling the ring (the "re-establish the
	// logical ring" remedy the paper mentions R1 needs).
	repairSkip bool

	pending    []bool
	traversals int64
	hops       int64
	stalled    bool
	started    bool
	maxRounds  int64
}

// hold is R1's critical section; its ticket is the token the holder
// forwards when the hold ends.
type hold = mutex.Hold[r1Token]

var (
	_ core.Algorithm              = (*R1)(nil)
	_ core.MHHandler              = (*R1)(nil)
	_ core.DeliveryFailureHandler = (*R1)(nil)
	_ core.TimerHandler           = (*R1)(nil)
)

// NewR1 registers an R1 instance whose ring visits the given MHs in order.
// maxTraversals bounds token circulation (the token parks after that many
// full traversals) so simulations quiesce; 0 means circulate forever.
func NewR1(reg core.Registrar, ringOrder []core.MHID, opts Options, repairSkip bool, maxTraversals int64) (*R1, error) {
	ring, err := core.NewParticipants(reg, ringOrder)
	if err != nil {
		return nil, fmt.Errorf("ring: R1: %w", err)
	}
	a := &R1{
		ring:       ring,
		repairSkip: repairSkip,
		pending:    make([]bool, ring.Len()),
		maxRounds:  maxTraversals,
	}
	a.ctx = reg.Register(a)
	a.hold = mutex.NewHold(a.ctx, opts.cs(), func(mh core.MHID, tok r1Token) {
		slot, _ := a.ring.Slot(mh)
		a.forward(slot, tok)
	})
	return a, nil
}

// Name implements core.Algorithm.
func (a *R1) Name() string { return "mutex/R1" }

// Traversals reports completed ring traversals.
func (a *R1) Traversals() int64 { return a.traversals }

// Hops reports token transmissions between ring members.
func (a *R1) Hops() int64 { return a.hops }

// Stalled reports whether the token was lost to a disconnected MH without
// repair.
func (a *R1) Stalled() bool { return a.stalled }

// Start injects the token at the first ring member. It must be called
// exactly once.
func (a *R1) Start() error {
	if a.started {
		return fmt.Errorf("ring: R1 already started")
	}
	a.started = true
	// The initial holder receives the token by fiat, without a transmission.
	a.receive(0, r1Token{}, true)
	return nil
}

// Request records that mh wants the critical section on the token's next
// visit.
func (a *R1) Request(mh core.MHID) error {
	slot, ok := a.ring.Slot(mh)
	if !ok {
		return fmt.Errorf("ring: mh%d is not an R1 participant", int(mh))
	}
	a.pending[slot] = true
	a.ctx.NoteCSRequest(mh)
	return nil
}

// HandleMH implements core.MHHandler.
func (a *R1) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	tok, ok := msg.(r1Token)
	if !ok {
		panic(fmt.Sprintf("ring: R1 received unexpected message %T", msg))
	}
	slot, ok := a.ring.Slot(at)
	if !ok {
		panic(fmt.Sprintf("ring: R1 token delivered to non-participant mh%d", int(at)))
	}
	a.receive(slot, tok, false)
}

// OnDeliveryFailure implements core.DeliveryFailureHandler: with repair
// enabled, the token skips the disconnected member; otherwise the ring is
// stalled, the paper's vulnerability.
func (a *R1) OnDeliveryFailure(ctx core.Context, at core.MSSID, mh core.MHID, msg core.Message, _ core.FailReason) {
	tok, ok := msg.(r1Token)
	if !ok {
		return
	}
	if !a.repairSkip {
		a.stalled = true
		return
	}
	slot, ok := a.ring.Slot(mh)
	if !ok {
		return
	}
	next := (slot + 1) % a.ring.Len()
	a.hops++
	ctx.SendToMH(at, a.ring.Host(next), tok, cost.CatAlgorithm)
}

// receive processes a token arrival at the ring member in slot. injected
// marks the initial placement, which does not complete a traversal.
func (a *R1) receive(slot int, tok r1Token, injected bool) {
	if slot == 0 && !injected {
		tok.Traversals++
		a.traversals = tok.Traversals
		if a.maxRounds > 0 && tok.Traversals >= a.maxRounds {
			return // park the token; the simulation can quiesce
		}
	}
	if a.pending[slot] {
		a.pending[slot] = false
		a.Enter(a.ring.Host(slot), tok) // the holder forwards it when the hold ends
		return
	}
	a.forward(slot, tok)
}

func (a *R1) forward(slot int, tok r1Token) {
	next := (slot + 1) % a.ring.Len()
	a.hops++
	a.ctx.NoteTokenPass(a.ring.Host(slot), a.ring.Host(next))
	if err := a.ctx.SendMHToMH(a.ring.Host(slot), a.ring.Host(next), tok, cost.CatAlgorithm); err != nil {
		// The holder itself disconnected with the token: the ring stalls.
		a.stalled = true
	}
}

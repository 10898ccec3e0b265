package lamport

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/logical"
	"mobiledist/internal/sim"
)

// Options configure the critical-section behaviour shared by L1 and L2.
type Options struct {
	// Hold is how long a granted MH occupies the critical section before
	// the algorithm releases on its behalf.
	Hold sim.Time
	// OnEnter fires when mh enters the critical section.
	OnEnter func(mh core.MHID)
	// OnExit fires when mh leaves the critical section (the release has
	// been initiated; propagation is asynchronous).
	OnExit func(mh core.MHID)
}

// L1 executes Lamport's mutual exclusion directly on the mobile hosts.
// Every MH participates in every execution: each maintains a clock and a
// request queue, and all protocol traffic is MH-to-MH.
type L1 struct {
	ctx     core.Context
	opts    Options
	members *core.Participants
	engines []*logical.MutexEngine
	pending []*logical.Timestamp // outstanding own request per slot
	grants  int64
}

var (
	_ core.Algorithm    = (*L1)(nil)
	_ core.MHHandler    = (*L1)(nil)
	_ core.TimerHandler = (*L1)(nil)
)

// l1Release is the timer message that ends the critical section the MH in
// slot entered with request ts.
type l1Release struct {
	slot int
	ts   logical.Timestamp
}

// NewL1 registers an L1 instance over the given participant MHs (all N MHs
// in the paper's analysis).
func NewL1(reg core.Registrar, participants []core.MHID, opts Options) (*L1, error) {
	members, err := core.NewParticipants(reg, participants)
	if err != nil {
		return nil, fmt.Errorf("lamport: L1: %w", err)
	}
	n := members.Len()
	a := &L1{
		opts:    opts,
		members: members,
		engines: make([]*logical.MutexEngine, n),
		pending: make([]*logical.Timestamp, n),
	}
	a.ctx = reg.Register(a)
	for i := range a.engines {
		slot := i
		a.engines[i] = logical.NewMutexEngine(slot, n,
			func(to int, m logical.MutexMsg) { a.sendPeer(slot, to, m) },
			func(tag int64, ts logical.Timestamp) { a.granted(slot, ts) },
		)
	}
	return a, nil
}

// Name implements core.Algorithm.
func (a *L1) Name() string { return "mutex/L1" }

// Grants reports how many critical-section entries have been granted.
func (a *L1) Grants() int64 { return a.grants }

// Request issues a mutual exclusion request on behalf of mh. At most one
// request per MH may be outstanding.
func (a *L1) Request(mh core.MHID) error {
	slot, ok := a.members.Slot(mh)
	if !ok {
		return fmt.Errorf("lamport: mh%d is not an L1 participant", int(mh))
	}
	if a.pending[slot] != nil {
		return fmt.Errorf("lamport: mh%d already has an outstanding request", int(mh))
	}
	ts := a.engines[slot].Request(0)
	a.pending[slot] = &ts
	a.ctx.NoteCSRequest(mh)
	return nil
}

// HandleMH implements core.MHHandler.
func (a *L1) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	slot, ok := a.members.Slot(at)
	if !ok {
		panic(fmt.Sprintf("lamport: L1 message delivered to non-participant mh%d", int(at)))
	}
	m, ok := msg.(logical.MutexMsg)
	if !ok {
		panic(fmt.Sprintf("lamport: L1 received unexpected message %T", msg))
	}
	a.engines[slot].Handle(m)
}

func (a *L1) sendPeer(from, to int, m logical.MutexMsg) {
	src := a.members.Host(from)
	dst := a.members.Host(to)
	if err := a.ctx.SendMHToMH(src, dst, m, cost.CatAlgorithm); err != nil {
		// A disconnected sender cannot participate; the paper notes L1 does
		// not provide for disconnection, so the message is simply lost and
		// the algorithm stalls — exactly the failure mode experiment E3
		// measures.
		return
	}
}

func (a *L1) granted(slot int, ts logical.Timestamp) {
	mh := a.members.Host(slot)
	a.grants++
	a.ctx.NoteCSEnter(mh)
	if a.opts.OnEnter != nil {
		a.opts.OnEnter(mh)
	}
	a.ctx.After(a.opts.Hold, l1Release{slot: slot, ts: ts})
}

// HandleTimer implements core.TimerHandler: the hold is over, so the MH
// leaves the critical section and releases.
func (a *L1) HandleTimer(_ core.Context, msg core.Message) {
	m := msg.(l1Release)
	mh := a.members.Host(m.slot)
	a.ctx.NoteCSExit(mh)
	if a.opts.OnExit != nil {
		a.opts.OnExit(mh)
	}
	a.pending[m.slot] = nil
	if err := a.engines[m.slot].Release(m.ts); err != nil {
		panic(fmt.Sprintf("lamport: L1 release: %v", err))
	}
}

package lamport

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/logical"
	"mobiledist/internal/mutex"
)

// Options configure the critical-section behaviour shared by L1 and L2.
type Options = mutex.Options

// L1 executes Lamport's mutual exclusion directly on the mobile hosts.
// Every MH participates in every execution: each maintains a clock and a
// request queue, and all protocol traffic is MH-to-MH.
type L1 struct {
	hold
	ctx     core.Context
	members *core.Participants
	engines []*logical.MutexEngine
	pending []*logical.Timestamp // outstanding own request per slot
}

// hold is L1's critical section, ticketed by the request's timestamp.
type hold = mutex.Hold[logical.Timestamp]

var (
	_ core.Algorithm    = (*L1)(nil)
	_ core.MHHandler    = (*L1)(nil)
	_ core.TimerHandler = (*L1)(nil)
)

// NewL1 registers an L1 instance over the given participant MHs (all N MHs
// in the paper's analysis).
func NewL1(reg core.Registrar, participants []core.MHID, opts Options) (*L1, error) {
	members, err := core.NewParticipants(reg, participants)
	if err != nil {
		return nil, fmt.Errorf("lamport: L1: %w", err)
	}
	n := members.Len()
	a := &L1{
		members: members,
		engines: make([]*logical.MutexEngine, n),
		pending: make([]*logical.Timestamp, n),
	}
	a.ctx = reg.Register(a)
	a.hold = mutex.NewHold(a.ctx, opts, a.release)
	for i := range a.engines {
		slot := i
		a.engines[i] = logical.NewMutexEngine(slot, n,
			func(to int, m logical.MutexMsg) { a.sendPeer(slot, to, m) },
			func(tag int64, ts logical.Timestamp) { a.Enter(a.members.Host(slot), ts) },
		)
	}
	return a, nil
}

// Name implements core.Algorithm.
func (a *L1) Name() string { return "mutex/L1" }

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

// release ends the hold of mh, which releases its request ts.
func (a *L1) release(mh core.MHID, ts logical.Timestamp) {
	slot, _ := a.members.Slot(mh)
	a.pending[slot] = nil
	if err := a.engines[slot].Release(ts); err != nil {
		panic(fmt.Sprintf("lamport: L1 release: %v", err))
	}
}

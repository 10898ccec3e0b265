// Package mutex holds what the paper's mutual-exclusion algorithms share
// (Section 3.1): Hold, the critical section as L1, L2, R1 and R2 all run
// it, and Round, the lending round of the restructured L2 and R2. An
// algorithm embeds the part it uses, whose handlers become its own.
package mutex

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/sim"
)

// Options configure the critical section.
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

// Hold is one algorithm's critical section: Enter notes the entry, fires
// OnEnter and arms the hold timer; when it expires, HandleTimer notes the
// exit, fires OnExit and runs the algorithm's done step. The ticket T
// rides the timer to that step: what the algorithm needs to release.
type Hold[T any] struct {
	ctx    core.Context
	opts   Options
	done   func(mh core.MHID, ticket T)
	grants int64
}

// holdDone is the timer message that ends mh's critical section.
type holdDone[T any] struct {
	mh     core.MHID
	ticket T
}

// NewHold returns the hold of the algorithm registered with ctx; done runs
// when a hold ends, after OnExit.
func NewHold[T any](ctx core.Context, opts Options, done func(mh core.MHID, ticket T)) Hold[T] {
	return Hold[T]{ctx: ctx, opts: opts, done: done}
}

// Grants reports how many critical-section entries have been granted.
func (h *Hold[T]) Grants() int64 { return h.grants }

// Enter admits mh to the critical section.
func (h *Hold[T]) Enter(mh core.MHID, ticket T) {
	h.grants++
	h.ctx.NoteCSEnter(mh)
	if h.opts.OnEnter != nil {
		h.opts.OnEnter(mh)
	}
	h.ctx.After(h.opts.Hold, holdDone[T]{mh: mh, ticket: ticket})
}

// HandleTimer implements core.TimerHandler: the hold is over.
func (h *Hold[T]) HandleTimer(_ core.Context, msg core.Message) {
	m, ok := msg.(holdDone[T])
	if !ok {
		panic(fmt.Sprintf("mutex: unexpected timer %T", msg))
	}
	h.ctx.NoteCSExit(m.mh)
	if h.opts.OnExit != nil {
		h.opts.OnExit(m.mh)
	}
	h.done(m.mh, m.ticket)
}

package mutex

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
)

// Round is the lending round L2 and R2 share (Sections 3.1.1, 3.1.2). The
// MH asks its local MSS (Ask: Cwireless). The station tier runs the
// algorithm, and the granting station lends the critical section to the
// MH by search (Lend: Csearch + Cwireless). When the hold ends, the MH
// returns it to its current MSS, which relays it over the fixed network to
// the granting station (Cwireless + Cfixed, charged even when the two are
// one station): cost.AnalyticLendingRound in all. A MH disconnected when
// its hold ends owes the return and sends it from the cell it reconnects
// in; a grant that finds its MH disconnected comes back as a failure.
//
// The ticket T names one loan (L2: the request timestamp; R2: the token
// value). An algorithm embeds *Round and passes the messages its own
// HandleMSS does not know on to Round.HandleMSS.
type Round[T any] struct {
	Hold[loan[T]]
	steps Steps[T]
	owed  []*loan[T] // per MH: the return it could not send yet
}

// Steps are the algorithm's parts of the round.
type Steps[T any] struct {
	// Granted runs at mh when the grant reaches it, before it enters
	// (nil: nothing).
	Granted func(mh core.MHID, ticket T)
	// Released runs at mh when its hold ends, before it sends the return
	// (nil: nothing).
	Released func(mh core.MHID)
	// Returned runs at the granting station when the critical section
	// comes back.
	Returned func(at core.MSSID, mh core.MHID, ticket T)
	// Failed runs at the granting station when its grant found mh
	// disconnected.
	Failed func(at core.MSSID, mh core.MHID, ticket T)
}

// loan is one lent critical section: the station that granted it and the
// algorithm's ticket.
type loan[T any] struct {
	station core.MSSID
	ticket  T
}

// The round's messages: the grant to the MH, its return to its current
// MSS, and the relay to the granting station.
type (
	grantMsg[T any]  loan[T]
	returnMsg[T any] loan[T]
	relayMsg[T any]  struct {
		mh     core.MHID
		ticket T
	}
)

// NewRound returns the round of the algorithm registered with ctx.
func NewRound[T any](ctx core.Context, opts Options, steps Steps[T]) *Round[T] {
	r := &Round[T]{steps: steps, owed: make([]*loan[T], ctx.N())}
	r.Hold = NewHold(ctx, opts, func(mh core.MHID, l loan[T]) {
		if steps.Released != nil {
			steps.Released(mh)
		}
		r.giveBack(mh, l)
	})
	return r
}

// Ask sends mh's request to its local MSS, where the algorithm's
// HandleMSS takes it.
func (r *Round[T]) Ask(mh core.MHID, req core.Message) error {
	if err := r.ctx.SendFromMH(mh, req, cost.CatAlgorithm); err != nil {
		return err
	}
	r.ctx.NoteCSRequest(mh)
	return nil
}

// Lend sends the grant for ticket from station at to mh.
func (r *Round[T]) Lend(at core.MSSID, mh core.MHID, ticket T) {
	r.ctx.SendToMH(at, mh, grantMsg[T]{station: at, ticket: ticket}, cost.CatAlgorithm)
}

// HandleMH implements core.MHHandler: the grant reached its MH, which
// enters the critical section.
func (r *Round[T]) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	g, ok := msg.(grantMsg[T])
	if !ok {
		panic(fmt.Sprintf("mutex: MH received unexpected message %T", msg))
	}
	if r.steps.Granted != nil {
		r.steps.Granted(at, g.ticket)
	}
	r.Enter(at, loan[T](g))
}

// giveBack sends mh's return to its current MSS, or owes it while mh is
// disconnected.
func (r *Round[T]) giveBack(mh core.MHID, l loan[T]) {
	if err := r.ctx.SendFromMH(mh, returnMsg[T](l), cost.CatAlgorithm); err != nil {
		r.owed[mh] = &l
	}
}

// OnJoin implements core.JoinObserver: a reconnecting MH that owes a
// return sends it from its new cell.
func (r *Round[T]) OnJoin(_ core.Context, _ core.MSSID, mh core.MHID, _ core.MSSID, wasDisconnected bool) {
	l := r.owed[mh]
	if !wasDisconnected || l == nil {
		return
	}
	r.owed[mh] = nil
	r.giveBack(mh, *l)
}

// HandleMSS takes the round's messages at a station: a MH's return, which
// it relays to the granting station, and a relayed return, which brings
// the critical section back.
func (r *Round[T]) HandleMSS(_ core.Context, at core.MSSID, from core.From, msg core.Message) {
	switch m := msg.(type) {
	case returnMsg[T]:
		if !from.IsMH {
			panic("mutex: a return must come from a MH")
		}
		r.ctx.SendFixed(at, m.station, relayMsg[T]{mh: from.MH, ticket: m.ticket}, cost.CatAlgorithm)
	case relayMsg[T]:
		r.steps.Returned(at, m.mh, m.ticket)
	default:
		panic(fmt.Sprintf("mutex: MSS received unexpected message %T", msg))
	}
}

// OnDeliveryFailure implements core.DeliveryFailureHandler: a grant found
// its MH disconnected and came back to the granting station.
func (r *Round[T]) OnDeliveryFailure(_ core.Context, at core.MSSID, mh core.MHID, msg core.Message, _ core.FailReason) {
	if g, ok := msg.(grantMsg[T]); ok {
		r.steps.Failed(at, mh, g.ticket)
	}
}

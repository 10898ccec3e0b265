package lamport

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/logical"
	"mobiledist/internal/mutex"
)

// initMsg is sent by a MH to its local MSS to initiate a request. Only
// MSS-to-MSS messages carry Lamport timestamps (Section 3.1.1).
type initMsg struct{}

// round is L2's lending round, ticketed by the request's timestamp.
type round = mutex.Round[logical.Timestamp]

// L2 is the paper's restructured Lamport algorithm: the M support stations
// maintain the request queues and exchange timestamped request/reply/release
// messages on behalf of the mobile hosts. The round between a MH and the
// stations is mutex.Round's.
type L2 struct {
	*round
	ctx       core.Context
	engines   []*logical.MutexEngine
	requested []bool // per MH: a request is outstanding

	failedGrants int64
}

var (
	_ core.Algorithm              = (*L2)(nil)
	_ core.MSSHandler             = (*L2)(nil)
	_ core.MHHandler              = (*L2)(nil)
	_ core.DeliveryFailureHandler = (*L2)(nil)
	_ core.JoinObserver           = (*L2)(nil)
	_ core.TimerHandler           = (*L2)(nil)
)

// NewL2 registers an L2 instance. All M MSSs participate; any MH may
// request the critical section.
func NewL2(reg core.Registrar, opts Options) *L2 {
	a := &L2{}
	a.ctx = reg.Register(a)
	a.round = mutex.NewRound(a.ctx, opts, mutex.Steps[logical.Timestamp]{
		// The request is no longer outstanding from the MH's point of
		// view; a new Request may be issued while the release propagates.
		Released: func(mh core.MHID) { a.requested[mh] = false },
		Returned: func(at core.MSSID, _ core.MHID, ts logical.Timestamp) { a.release(at, ts) },
		Failed:   a.failed,
	})
	m := a.ctx.M()
	a.engines = make([]*logical.MutexEngine, m)
	a.requested = make([]bool, a.ctx.N())
	for i := 0; i < m; i++ {
		slot := i
		a.engines[i] = logical.NewMutexEngine(slot, m,
			func(to int, msg logical.MutexMsg) {
				a.ctx.SendFixed(core.MSSID(slot), core.MSSID(to), msg, cost.CatAlgorithm)
			},
			func(tag int64, ts logical.Timestamp) { a.Lend(core.MSSID(slot), core.MHID(tag), ts) },
		)
	}
	return a
}

// Name implements core.Algorithm.
func (a *L2) Name() string { return "mutex/L2" }

// FailedGrants reports grants abandoned because the requester disconnected.
func (a *L2) FailedGrants() int64 { return a.failedGrants }

// Request initiates a mutual exclusion request for mh: the MH sends init()
// to its local MSS. At most one request per MH may be outstanding.
func (a *L2) Request(mh core.MHID) error {
	if a.requested[mh] {
		return fmt.Errorf("lamport: mh%d already has an outstanding request", int(mh))
	}
	if err := a.Ask(mh, initMsg{}); err != nil {
		return fmt.Errorf("lamport: L2 request: %w", err)
	}
	a.requested[mh] = true
	return nil
}

// HandleMSS implements core.MSSHandler.
func (a *L2) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
	switch m := msg.(type) {
	case initMsg:
		if !from.IsMH {
			panic("lamport: init() must come from a MH")
		}
		a.engines[at].Request(int64(from.MH))
	case logical.MutexMsg:
		a.engines[at].Handle(m)
	default:
		a.round.HandleMSS(ctx, at, from, msg)
	}
}

// failed withdraws the request of a MH its grant found disconnected: the
// home MSS releases on its behalf to every other MSS (Section 3.1.1).
func (a *L2) failed(at core.MSSID, mh core.MHID, ts logical.Timestamp) {
	a.failedGrants++
	a.requested[mh] = false
	a.release(at, ts)
}

func (a *L2) release(at core.MSSID, ts logical.Timestamp) {
	if err := a.engines[at].Release(ts); err != nil {
		panic(fmt.Sprintf("lamport: L2 release: %v", err))
	}
}

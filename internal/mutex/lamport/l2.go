package lamport

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/logical"
)

// Protocol messages of algorithm L2. Only MSS-to-MSS messages carry Lamport
// timestamps; messages between a MH and a MSS are not timestamped
// (Section 3.1.1).
type (
	// initMsg is sent by a MH to its local MSS to initiate a request.
	initMsg struct{}

	// grantMsg tells the MH it may enter the critical section. Home is the
	// MSS that competed on its behalf and ReqTS the request's timestamp,
	// echoed back in the release path.
	grantMsg struct {
		Home  core.MSSID
		ReqTS logical.Timestamp
	}

	// releaseResourceMsg is sent by the MH to its *current* local MSS after
	// leaving the critical section; that MSS relays it to Home.
	releaseResourceMsg struct {
		Home  core.MSSID
		ReqTS logical.Timestamp
	}

	// relayReleaseMsg carries a relayed release-resource to the home MSS.
	relayReleaseMsg struct {
		MH    core.MHID
		ReqTS logical.Timestamp
	}

	// holdDoneMsg is the timer message that ends MH's critical section;
	// Rel is the release-resource it then sends.
	holdDoneMsg struct {
		MH  core.MHID
		Rel releaseResourceMsg
	}
)

type l2MHState struct {
	requested bool
	// owesRelease holds the pending release-resource of a MH that
	// disconnected inside the critical section; L2 requires it to reconnect
	// to send it (Section 3.1.1).
	owesRelease *releaseResourceMsg
}

// L2 is the paper's restructured Lamport algorithm: the M support stations
// maintain the request queues and exchange timestamped request/reply/release
// messages on behalf of the mobile hosts.
type L2 struct {
	ctx     core.Context
	opts    Options
	engines []*logical.MutexEngine
	mhs     []l2MHState

	grants       int64
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
	a := &L2{opts: opts}
	a.ctx = reg.Register(a)
	m := a.ctx.M()
	a.engines = make([]*logical.MutexEngine, m)
	a.mhs = make([]l2MHState, a.ctx.N())
	for i := 0; i < m; i++ {
		slot := i
		a.engines[i] = logical.NewMutexEngine(slot, m,
			func(to int, msg logical.MutexMsg) {
				a.ctx.SendFixed(core.MSSID(slot), core.MSSID(to), msg, cost.CatAlgorithm)
			},
			func(tag int64, ts logical.Timestamp) { a.granted(core.MSSID(slot), core.MHID(tag), ts) },
		)
	}
	return a
}

// Name implements core.Algorithm.
func (a *L2) Name() string { return "mutex/L2" }

// Grants reports how many critical-section entries have been granted.
func (a *L2) Grants() int64 { return a.grants }

// FailedGrants reports grants abandoned because the requester disconnected.
func (a *L2) FailedGrants() int64 { return a.failedGrants }

// Request initiates a mutual exclusion request for mh: the MH sends init()
// to its local MSS. At most one request per MH may be outstanding.
func (a *L2) Request(mh core.MHID) error {
	st := &a.mhs[mh]
	if st.requested {
		return fmt.Errorf("lamport: mh%d already has an outstanding request", int(mh))
	}
	if err := a.ctx.SendFromMH(mh, initMsg{}, cost.CatAlgorithm); err != nil {
		return fmt.Errorf("lamport: L2 request: %w", err)
	}
	st.requested = true
	a.ctx.NoteCSRequest(mh)
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
	case releaseResourceMsg:
		if !from.IsMH {
			panic("lamport: release-resource must come from a MH")
		}
		// Relay to the home MSS over the fixed network; the paper charges
		// Cwireless + Cfixed unconditionally for this leg.
		ctx.SendFixed(at, m.Home, relayReleaseMsg{MH: from.MH, ReqTS: m.ReqTS}, cost.CatAlgorithm)
	case relayReleaseMsg:
		if err := a.engines[at].Release(m.ReqTS); err != nil {
			panic(fmt.Sprintf("lamport: L2 release: %v", err))
		}
	case logical.MutexMsg:
		a.engines[at].Handle(m)
	default:
		panic(fmt.Sprintf("lamport: L2 MSS received unexpected message %T", msg))
	}
}

// HandleMH implements core.MHHandler.
func (a *L2) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {
	m, ok := msg.(grantMsg)
	if !ok {
		panic(fmt.Sprintf("lamport: L2 MH received unexpected message %T", msg))
	}
	a.grants++
	ctx.NoteCSEnter(at)
	if a.opts.OnEnter != nil {
		a.opts.OnEnter(at)
	}
	ctx.After(a.opts.Hold, holdDoneMsg{MH: at, Rel: releaseResourceMsg{Home: m.Home, ReqTS: m.ReqTS}})
}

// HandleTimer implements core.TimerHandler: the hold is over, so the MH
// leaves the critical section and sends release-resource.
func (a *L2) HandleTimer(ctx core.Context, msg core.Message) {
	m := msg.(holdDoneMsg)
	ctx.NoteCSExit(m.MH)
	if a.opts.OnExit != nil {
		a.opts.OnExit(m.MH)
	}
	// The request is no longer outstanding from the MH's point of view;
	// a new Request may be issued while the release propagates.
	a.mhs[m.MH].requested = false
	rel := m.Rel
	if err := ctx.SendFromMH(m.MH, rel, cost.CatAlgorithm); err != nil {
		// Disconnected inside the critical section: L2 requires the MH
		// to reconnect to send release-resource; remember the debt.
		a.mhs[m.MH].owesRelease = &rel
	}
}

// OnDeliveryFailure implements core.DeliveryFailureHandler: the grant could
// not be delivered because the MH disconnected, so its request is withdrawn
// and a release is sent to every other MSS (Section 3.1.1).
func (a *L2) OnDeliveryFailure(ctx core.Context, at core.MSSID, mh core.MHID, msg core.Message, reason core.FailReason) {
	m, ok := msg.(grantMsg)
	if !ok {
		return
	}
	a.failedGrants++
	a.mhs[mh].requested = false
	if err := a.engines[at].Release(m.ReqTS); err != nil {
		panic(fmt.Sprintf("lamport: L2 failure release: %v", err))
	}
}

// OnJoin implements core.JoinObserver: a reconnecting MH that owes a
// release-resource sends it from its new cell.
func (a *L2) OnJoin(ctx core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, wasDisconnected bool) {
	if !wasDisconnected {
		return
	}
	st := &a.mhs[mh]
	if st.owesRelease == nil {
		return
	}
	rel := *st.owesRelease
	st.owesRelease = nil
	if err := ctx.SendFromMH(mh, rel, cost.CatAlgorithm); err != nil {
		st.owesRelease = &rel
	}
}

func (a *L2) granted(home core.MSSID, mh core.MHID, ts logical.Timestamp) {
	// Deliver the grant to the MH, which may have changed cells; the send
	// incurs a search (Csearch + Cwireless).
	a.ctx.SendToMH(home, mh, grantMsg{Home: home, ReqTS: ts}, cost.CatAlgorithm)
}

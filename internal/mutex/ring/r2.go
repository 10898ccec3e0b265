package ring

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// Variant selects among the paper's R2 family.
type Variant int

// R2 variants.
const (
	// VariantPlain is R2: every pending request moves to the grant queue on
	// token arrival; a fast-moving MH may be served up to M times in one
	// traversal (at most N×M grants per traversal system-wide).
	VariantPlain Variant = iota + 1
	// VariantCounter is R2′: the token carries token-val, incremented per
	// completed traversal; a request is granted only if the requester's
	// reported access-count is below token-val, bounding each MH to one
	// access per traversal — if it is honest.
	VariantCounter
	// VariantList is R2″: the token carries a list of (MSS, MH) pairs;
	// arriving at MSS M it discards pairs tagged M, and a request from h is
	// granted only if h appears in no pair. Robust against a malicious MH
	// under-reporting its access count.
	VariantList
)

// String returns the variant name as used in the paper.
func (v Variant) String() string {
	switch v {
	case VariantPlain:
		return "R2"
	case VariantCounter:
		return "R2'"
	case VariantList:
		return "R2''"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

type tokenPair struct {
	MSS core.MSSID
	MH  core.MHID
}

// r2Token circulates among the MSSs.
type r2Token struct {
	Val  int64
	List []tokenPair
	// Gen is the recovery generation (see r2recovery.go). Tokens below a
	// station's generation floor are stale and dropped. Always 0 when
	// Options.Recovery is nil.
	Gen int64
}

// Protocol messages of the R2 family.
type (
	// r2Request is a MH's wireless request to its local MSS, carrying its
	// reported access count (VariantCounter only consults it).
	r2Request struct {
		AccessCount int64
	}

	// r2Grant hands the token to a MH. Owner awaits its return.
	r2Grant struct {
		Owner core.MSSID
		Val   int64
	}

	// r2ReturnUp is the MH returning the token to its current local MSS,
	// to be relayed to Owner.
	r2ReturnUp struct {
		Owner core.MSSID
		MH    core.MHID
	}

	// r2ReturnRelay carries the returned token to the owning MSS over the
	// fixed network.
	r2ReturnRelay struct {
		MH core.MHID
	}

	// r2HoldDone is the timer message that ends MH's critical section; it
	// then returns the token to Owner.
	r2HoldDone struct {
		Owner core.MSSID
		MH    core.MHID
	}
)

type r2Req struct {
	MH          core.MHID
	AccessCount int64
}

type r2MSSState struct {
	requestQ []r2Req
	grantQ   []r2Req
	holding  bool
	token    r2Token
	// servicing is the MH currently holding the token out of this MSS.
	servicing   core.MHID
	isServicing bool

	// Recovery state (r2recovery.go). gen is the station's generation floor
	// — the only field NoteRestart preserves (stable storage). lastSeen and
	// lastVal record the station's freshest token sighting for probe rounds.
	gen      int64
	lastSeen sim.Time
	lastVal  int64
}

type r2MHState struct {
	accessCount int64
	// owesReturn remembers a token return that could not be sent because
	// the MH disconnected while in the critical section; it is sent upon
	// reconnection.
	owesReturn *r2ReturnUp
}

// R2 is the paper's restructured token-ring mutual exclusion: the ring is
// formed by the M support stations, and mobile hosts interact only with
// their local MSS (plus one searched token delivery per grant).
type R2 struct {
	ctx     core.Context
	opts    Options
	variant Variant
	mss     []r2MSSState
	mhs     []r2MHState

	// lie, when non-nil, makes the selected MHs report access count 0 on
	// every request — the paper's "malicious" MH for motivating R2″.
	lie func(core.MHID) bool

	grants       int64
	traversals   int64
	perTraversal []int64 // grants in each completed traversal
	inTraversal  int64
	maxRounds    int64
	started      bool
	parked       bool

	// Recovery counters and the monitor's current probe-round state
	// (r2recovery.go). Round state is scalar, not per-station: only one
	// monitor exists at a time and a fresh round supersedes a stale one via
	// the nonce.
	regens      int64
	staleTokens int64
	monNonce    int64
	monPending  int
	monSawToken bool
	monMaxSeen  sim.Time
	monMaxGen   int64
	monMaxVal   int64
}

var (
	_ core.Algorithm              = (*R2)(nil)
	_ core.MSSHandler             = (*R2)(nil)
	_ core.MHHandler              = (*R2)(nil)
	_ core.DeliveryFailureHandler = (*R2)(nil)
	_ core.JoinObserver           = (*R2)(nil)
	_ core.RestartObserver        = (*R2)(nil)
	_ core.TimerHandler           = (*R2)(nil)
)

// NewR2 registers an R2-family instance. The ring is MSS 0 → 1 → … → M−1 →
// 0. maxTraversals parks the token after that many completed traversals so
// simulations quiesce; 0 circulates forever. lie selects malicious MHs (nil
// for none).
func NewR2(reg core.Registrar, variant Variant, opts Options, maxTraversals int64, lie func(core.MHID) bool) (*R2, error) {
	switch variant {
	case VariantPlain, VariantCounter, VariantList:
	default:
		return nil, fmt.Errorf("ring: unknown R2 variant %d", int(variant))
	}
	a := &R2{opts: opts, variant: variant, maxRounds: maxTraversals, lie: lie}
	a.ctx = reg.Register(a)
	a.mss = make([]r2MSSState, a.ctx.M())
	a.mhs = make([]r2MHState, a.ctx.N())
	return a, nil
}

// Name implements core.Algorithm.
func (a *R2) Name() string { return "mutex/" + a.variant.String() }

// Variant reports which member of the R2 family this instance runs.
func (a *R2) Variant() Variant { return a.variant }

// Grants reports critical-section entries granted.
func (a *R2) Grants() int64 { return a.grants }

// Traversals reports completed ring traversals.
func (a *R2) Traversals() int64 { return a.traversals }

// GrantsPerTraversal returns the grant count of each completed traversal.
func (a *R2) GrantsPerTraversal() []int64 {
	return append([]int64(nil), a.perTraversal...)
}

// Parked reports whether the token has stopped after maxTraversals.
func (a *R2) Parked() bool { return a.parked }

// Start injects the token at MSS 0. It must be called exactly once.
func (a *R2) Start() error {
	if a.started {
		return fmt.Errorf("ring: %s already started", a.variant)
	}
	a.started = true
	a.armProbes()
	a.tokenArrives(0, r2Token{})
	return nil
}

// Request sends a token request from mh to its current local MSS. Requests
// are queued there and served on the token's next arrival. A MH may have
// requests pending at several MSSs as it moves — the interplay the paper
// uses to motivate R2′.
func (a *R2) Request(mh core.MHID) error {
	reported := a.mhs[mh].accessCount
	if a.lie != nil && a.lie(mh) {
		reported = 0
	}
	if err := a.ctx.SendFromMH(mh, r2Request{AccessCount: reported}, cost.CatAlgorithm); err != nil {
		return fmt.Errorf("ring: %s request: %w", a.variant, err)
	}
	a.ctx.NoteCSRequest(mh)
	return nil
}

// HandleMSS implements core.MSSHandler.
func (a *R2) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
	st := &a.mss[at]
	switch m := msg.(type) {
	case r2Request:
		if !from.IsMH {
			panic("ring: r2Request must come from a MH")
		}
		st.requestQ = append(st.requestQ, r2Req{MH: from.MH, AccessCount: m.AccessCount})
	case r2Token:
		a.tokenArrives(at, m)
	case r2ReturnUp:
		if !from.IsMH {
			panic("ring: r2ReturnUp must come from a MH")
		}
		// Relay the token back to the owning MSS over the fixed network;
		// charged unconditionally (Cwireless + Cfixed in the paper).
		ctx.SendFixed(at, m.Owner, r2ReturnRelay{MH: m.MH}, cost.CatAlgorithm)
	case r2Probe:
		ctx.SendFixed(at, m.Origin, r2ProbeReply{
			Nonce:    m.Nonce,
			HasToken: st.holding || st.isServicing,
			LastSeen: st.lastSeen,
			Gen:      st.gen,
			Val:      st.lastVal,
		}, cost.CatControl)
	case r2ProbeReply:
		a.probeReply(at, m)
	case r2NewGen:
		if m.Gen > st.gen {
			st.gen = m.Gen
		}
	case r2ReturnRelay:
		if !st.isServicing || st.servicing != m.MH {
			if a.opts.Recovery != nil {
				// The station crashed and restarted while this grant was
				// out: its servicing state is gone, and the returning token
				// belongs to a superseded generation. Drop it; if it was
				// somehow the live token, the probe timeout regenerates it.
				a.staleTokens++
				return
			}
			panic(fmt.Sprintf("ring: mss%d got token return from mh%d while not servicing it", int(at), int(m.MH)))
		}
		st.isServicing = false
		if a.variant == VariantList {
			st.token.List = append(st.token.List, tokenPair{MSS: at, MH: m.MH})
		}
		a.serviceNext(at)
	default:
		panic(fmt.Sprintf("ring: %s MSS received unexpected message %T", a.variant, msg))
	}
}

// HandleMH implements core.MHHandler: the MH holds the token for the
// critical section, records the traversal counter, and returns it.
func (a *R2) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {
	m, ok := msg.(r2Grant)
	if !ok {
		panic(fmt.Sprintf("ring: %s MH received unexpected message %T", a.variant, msg))
	}
	a.grants++
	a.inTraversal++
	a.mhs[at].accessCount = m.Val
	ctx.NoteCSEnter(at)
	if a.opts.OnEnter != nil {
		a.opts.OnEnter(at)
	}
	ctx.After(a.opts.Hold, r2HoldDone{Owner: m.Owner, MH: at})
}

// HandleTimer implements core.TimerHandler: a hold ending (the MH leaves
// the critical section and returns the token) or a recovery probe tick.
func (a *R2) HandleTimer(ctx core.Context, msg core.Message) {
	switch m := msg.(type) {
	case r2HoldDone:
		ctx.NoteCSExit(m.MH)
		if a.opts.OnExit != nil {
			a.opts.OnExit(m.MH)
		}
		up := r2ReturnUp{Owner: m.Owner, MH: m.MH}
		if err := ctx.SendFromMH(m.MH, up, cost.CatAlgorithm); err != nil {
			// Disconnected while holding the token: it must reconnect to
			// return it; the ring waits (Section 3.1.2 keeps this case out
			// of scope — we model the honest-eventual-return behaviour).
			a.mhs[m.MH].owesReturn = &up
		}
	case r2ProbeTick:
		a.probeTick(m.MSS)
	default:
		panic(fmt.Sprintf("ring: %s received unexpected timer %T", a.variant, msg))
	}
}

// OnDeliveryFailure implements core.DeliveryFailureHandler: a granted MH
// turned out to be disconnected, so the local MSS of the cell where it
// disconnected "returns the token back to the sending MSS" — modelled as
// the failure notification — and service continues.
func (a *R2) OnDeliveryFailure(ctx core.Context, at core.MSSID, mh core.MHID, msg core.Message, _ core.FailReason) {
	if _, ok := msg.(r2Grant); !ok {
		return
	}
	st := &a.mss[at]
	if !st.isServicing || st.servicing != mh {
		if a.opts.Recovery != nil {
			// Servicing state was wiped by a crash/restart; the failed grant
			// belongs to a superseded token. Nothing left to resume.
			return
		}
		panic(fmt.Sprintf("ring: mss%d got grant failure for mh%d while not servicing it", int(at), int(mh)))
	}
	st.isServicing = false
	a.serviceNext(at)
}

// OnJoin implements core.JoinObserver: a reconnecting MH that owes a
// token return sends it from its new cell.
func (a *R2) OnJoin(ctx core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, wasDisconnected bool) {
	if !wasDisconnected {
		return
	}
	st := &a.mhs[mh]
	if st.owesReturn == nil {
		return
	}
	up := *st.owesReturn
	st.owesReturn = nil
	if err := ctx.SendFromMH(mh, up, cost.CatAlgorithm); err != nil {
		st.owesReturn = &up
	}
}

// tokenArrives processes a token arrival at MSS at.
func (a *R2) tokenArrives(at core.MSSID, tok r2Token) {
	st := &a.mss[at]
	if tok.Gen < st.gen {
		// A token from before the last regeneration resurfaced (e.g. it was
		// in flight into a station that crashed and later restarted). The
		// generation floor retires it.
		a.staleTokens++
		return
	}
	a.checkSingleToken(at, tok)
	st.gen = tok.Gen
	st.lastSeen = a.ctx.Now()
	if at == 0 {
		// Arriving back at the ring origin completes a traversal.
		tok.Val++
		if tok.Val > 1 {
			a.traversals++
			a.perTraversal = append(a.perTraversal, a.inTraversal)
			a.inTraversal = 0
			if a.maxRounds > 0 && a.traversals >= a.maxRounds {
				a.parked = true
				return
			}
		}
	}
	st.holding = true
	st.token = tok
	st.lastVal = tok.Val
	if a.variant == VariantList {
		// Discard this MSS's pairs: h's next request here is serviceable
		// only after the token has visited every other MSS.
		kept := st.token.List[:0]
		for _, p := range st.token.List {
			if p.MSS != at {
				kept = append(kept, p)
			}
		}
		st.token.List = kept
	}

	// Move eligible pending requests to the grant queue.
	remaining := st.requestQ[:0]
	for _, r := range st.requestQ {
		if a.eligible(at, r) {
			st.grantQ = append(st.grantQ, r)
		} else {
			remaining = append(remaining, r)
		}
	}
	st.requestQ = remaining
	a.serviceNext(at)
}

// eligible applies the variant's admission rule.
func (a *R2) eligible(at core.MSSID, r r2Req) bool {
	st := &a.mss[at]
	switch a.variant {
	case VariantPlain:
		return true
	case VariantCounter:
		return r.AccessCount < st.token.Val
	case VariantList:
		for _, p := range st.token.List {
			if p.MH == r.MH {
				return false
			}
		}
		return true
	default:
		panic(fmt.Sprintf("ring: unknown variant %d", int(a.variant)))
	}
}

// serviceNext grants the next queued request or passes the token onward.
func (a *R2) serviceNext(at core.MSSID) {
	st := &a.mss[at]
	if !st.holding {
		panic(fmt.Sprintf("ring: mss%d servicing without token", int(at)))
	}
	if len(st.grantQ) > 0 {
		next := st.grantQ[0]
		st.grantQ = st.grantQ[1:]
		st.servicing = next.MH
		st.isServicing = true
		// Token out to the MH, which may have moved: search + wireless. The
		// from operand is -1: the passer is a station, not a ring member.
		a.ctx.NoteTokenPass(core.MHID(-1), next.MH)
		a.ctx.SendToMH(at, next.MH, r2Grant{Owner: at, Val: st.token.Val}, cost.CatAlgorithm)
		return
	}
	// Grant queue drained: transfer the token to the ring successor —
	// skipping stations the failure detector currently suspects, so the
	// token is not knowingly handed into a dead cell.
	st.holding = false
	tok := st.token
	st.token = r2Token{}
	a.ctx.SendFixed(at, a.nextLive(at), tok, cost.CatAlgorithm)
}

package ring

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex"
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

// r2Request is a MH's wireless request to its local MSS, carrying its
// reported access count (VariantCounter only consults it).
type r2Request struct {
	AccessCount int64
}

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

// round is R2's lending round, ticketed by the token value.
type round = mutex.Round[int64]

// R2 is the paper's restructured token-ring mutual exclusion: the ring is
// formed by the M support stations, and mobile hosts interact only with
// their local MSS (plus one searched token delivery per grant), through
// mutex.Round.
type R2 struct {
	*round
	ctx     core.Context
	opts    Options
	variant Variant
	mss     []r2MSSState
	// accessCount is, per MH, the token value of its last grant: the count
	// it reports with its next request.
	accessCount []int64

	// lie, when non-nil, makes the selected MHs report access count 0 on
	// every request — the paper's "malicious" MH for motivating R2″.
	lie func(core.MHID) bool

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
	a.round = mutex.NewRound(a.ctx, opts.cs(), mutex.Steps[int64]{
		Granted: func(mh core.MHID, val int64) {
			a.inTraversal++
			a.accessCount[mh] = val
		},
		Returned: a.returned,
		Failed:   a.failed,
	})
	a.mss = make([]r2MSSState, a.ctx.M())
	a.accessCount = make([]int64, a.ctx.N())
	return a, nil
}

// Name implements core.Algorithm.
func (a *R2) Name() string { return "mutex/" + a.variant.String() }

// Variant reports which member of the R2 family this instance runs.
func (a *R2) Variant() Variant { return a.variant }

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
	reported := a.accessCount[mh]
	if a.lie != nil && a.lie(mh) {
		reported = 0
	}
	if err := a.Ask(mh, r2Request{AccessCount: reported}); err != nil {
		return fmt.Errorf("ring: %s request: %w", a.variant, err)
	}
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
	default:
		a.round.HandleMSS(ctx, at, from, msg)
	}
}

// HandleTimer implements core.TimerHandler: a recovery probe tick, or a
// hold ending.
func (a *R2) HandleTimer(ctx core.Context, msg core.Message) {
	if m, ok := msg.(r2ProbeTick); ok {
		a.probeTick(m.MSS)
		return
	}
	a.round.HandleTimer(ctx, msg)
}

// returned takes the token back at the station that granted it and
// services the next request. The MH's current MSS relayed it over the
// fixed network.
func (a *R2) returned(at core.MSSID, mh core.MHID, _ int64) {
	if !a.servicing(at, mh, "token return") {
		// The station crashed and restarted while this grant was out: its
		// servicing state is gone, and the returning token belongs to a
		// superseded generation. Drop it; if it was somehow the live
		// token, the probe timeout regenerates it.
		a.staleTokens++
		return
	}
	st := &a.mss[at]
	st.isServicing = false
	if a.variant == VariantList {
		st.token.List = append(st.token.List, tokenPair{MSS: at, MH: mh})
	}
	a.serviceNext(at)
}

// failed resumes service after a granted MH turned out to be disconnected:
// the local MSS of the cell where it disconnected "returns the token back
// to the sending MSS", modelled as the failure notification.
func (a *R2) failed(at core.MSSID, mh core.MHID, _ int64) {
	if !a.servicing(at, mh, "grant failure") {
		// Servicing state was wiped by a crash/restart; the failed grant
		// belongs to a superseded token. Nothing left to resume.
		return
	}
	a.mss[at].isServicing = false
	a.serviceNext(at)
}

// servicing reports whether station at has the token out with mh. Under
// recovery a crash and restart may have wiped that state, and what comes
// back belongs to a superseded token; without recovery that cannot happen.
func (a *R2) servicing(at core.MSSID, mh core.MHID, what string) bool {
	st := &a.mss[at]
	if st.isServicing && st.servicing == mh {
		return true
	}
	if a.opts.Recovery == nil {
		panic(fmt.Sprintf("ring: mss%d got %s from mh%d while not servicing it", int(at), what, int(mh)))
	}
	return false
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
		a.Lend(at, next.MH, st.token.Val)
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

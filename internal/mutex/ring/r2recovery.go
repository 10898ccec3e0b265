package ring

// Token-loss detection and regeneration for the R2 family.
//
// The paper notes that token-based schemes must cope with token loss; on the
// two-tier model the interesting loss mode is an MSS crash swallowing the
// token (held, or in flight on a wired hop into the crashed station). This
// file adds a recovery sublayer that runs entirely on the fixed network:
//
//   - Every token carries a generation number Gen. Each MSS remembers the
//     highest generation it has observed; a token arriving with a lower
//     generation is stale (it survived a crash the ring has already recovered
//     from) and is dropped, counted in StaleTokensDropped. Generations live
//     in the station's stable storage: NoteRestart wipes volatile state but
//     keeps gen, so a restarted station can never resurrect a superseded
//     token.
//
//   - Every station runs a probe timer, but only the monitor — the
//     lowest-numbered station the failure detector does not currently
//     suspect — acts on it. Each round the monitor asks every non-suspected
//     station whether it holds the token and when it last saw it
//     (r2Probe/r2ProbeReply). If a complete round reports no live holder and
//     the newest sighting is older than Timeout, the token is declared lost.
//
//   - Regeneration: the monitor increments the generation past the highest
//     any live station has observed, announces it to the live stations
//     (r2NewGen, so all of them raise their stale-token floor before the old
//     token could possibly reappear via a restarted station), counts the
//     event through Context.NoteTokenRegeneration, and injects the
//     replacement token at itself with the highest token-val any live
//     station observed — so R2′/R2″ admission state keeps advancing
//     monotonically and no MH gets a replayed traversal.
//
// Exactly-one-token argument: only the monitor of a round regenerates, a
// round concludes only when every non-suspected station has replied, and the
// failure detector is assumed accurate-after-lag (an injector-backed oracle
// in the conformance suite): a station it suspects is really down. Hence at
// most one regeneration per loss; if the detector were wrong and the old
// token still circulated, the generation floor retires whichever token is
// older, and tokenArrives panics if two stations ever hold live tokens of
// the same or newer generation ("counted, never two").
//
// Scope: the protocol recovers the token, not grants in flight. A station
// that crashes mid-grant (its MH holding the token out) is outside the
// conformance scenarios; the paper keeps the analogous case out of scope for
// R2 as well (Section 3.1.2).

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// TokenRecovery configures token-loss detection for the R2 family (set it as
// Options.Recovery). All times are in ticks of virtual time.
type TokenRecovery struct {
	// ProbeEvery is the period of each station's probe timer. The monitor
	// starts a probe round on every tick; other stations keep the timer
	// armed so monitorship can fail over if the current monitor crashes.
	ProbeEvery sim.Time
	// Timeout declares the token lost when no live station holds it and the
	// newest sighting any live station reports is older than this. It must
	// comfortably exceed a full ring traversal including grant service, or
	// a slow-but-alive token will be duplicated.
	Timeout sim.Time
	// Suspect is the failure-detector oracle: whether station s is suspected
	// crashed at time t. The conformance suite backs it with the fault
	// injector's DownSince plus a suspicion lag. It must be accurate — a
	// suspected station is really down — for the single-token guarantee.
	// Nil means nothing is ever suspected (and nothing is ever regenerated:
	// without crashes the token cannot be lost).
	Suspect func(s core.MSSID, t sim.Time) bool
}

// Recovery protocol messages (fixed network only, cost.CatControl: recovery
// is model-level plumbing, not the algorithm traffic the paper prices).
type (
	// r2Probe asks a station for its view of the token.
	r2Probe struct {
		Origin core.MSSID
		Nonce  int64
	}

	// r2ProbeReply answers a probe.
	r2ProbeReply struct {
		Nonce    int64
		HasToken bool
		LastSeen sim.Time
		Gen      int64
		Val      int64
	}

	// r2NewGen announces a regenerated token's generation so every live
	// station raises its stale-token floor.
	r2NewGen struct {
		Gen int64
	}

	// r2ProbeTick is the timer message of MSS's probe timer.
	r2ProbeTick struct {
		MSS core.MSSID
	}
)

// Regenerations reports how many replacement tokens recovery has injected.
func (a *R2) Regenerations() int64 { return a.regens }

// StaleTokensDropped reports tokens retired by the generation floor.
func (a *R2) StaleTokensDropped() int64 { return a.staleTokens }

// NoteRestart implements core.RestartObserver: mss crashed and restarted,
// so its volatile state (queued requests, grant queue, any held token) is
// gone. R2 observes no crash itself: until the restart the fault injector
// discards the station's traffic, so there is nothing to do then. The
// generation floor survives — it models the one value the protocol commits
// to stable storage, and is what makes a pre-crash token arriving at the
// restarted station droppable rather than a second live token.
func (a *R2) NoteRestart(mss core.MSSID) {
	gen := a.mss[mss].gen
	a.mss[mss] = r2MSSState{gen: gen}
}

// suspected consults the failure-detector oracle.
func (a *R2) suspected(s core.MSSID, t sim.Time) bool {
	return a.opts.Recovery != nil && a.opts.Recovery.Suspect != nil && a.opts.Recovery.Suspect(s, t)
}

// armProbes starts every station's probe timer (called once from Start).
func (a *R2) armProbes() {
	if a.opts.Recovery == nil {
		return
	}
	for s := 0; s < a.ctx.M(); s++ {
		a.armProbe(core.MSSID(s))
	}
}

func (a *R2) armProbe(s core.MSSID) {
	a.ctx.After(a.opts.Recovery.ProbeEvery, r2ProbeTick{MSS: s})
}

// probeTick fires a station's probe timer. Timers stop rearming once the
// token parks so simulations quiesce.
func (a *R2) probeTick(s core.MSSID) {
	if a.parked {
		return
	}
	a.armProbe(s)
	now := a.ctx.Now()
	if a.suspected(s, now) || !a.isMonitor(s, now) {
		return
	}
	a.beginRound(s)
}

// isMonitor reports whether s is the lowest-numbered non-suspected station.
func (a *R2) isMonitor(s core.MSSID, now sim.Time) bool {
	for o := 0; o < int(s); o++ {
		if !a.suspected(core.MSSID(o), now) {
			return false
		}
	}
	return true
}

// beginRound starts a probe round at monitor s, seeding the round state with
// the monitor's own view and probing every other non-suspected station.
func (a *R2) beginRound(s core.MSSID) {
	now := a.ctx.Now()
	st := &a.mss[s]
	a.monNonce++
	a.monPending = 0
	a.monSawToken = st.holding || st.isServicing
	a.monMaxSeen = st.lastSeen
	a.monMaxGen = st.gen
	a.monMaxVal = st.lastVal
	for o := 0; o < a.ctx.M(); o++ {
		if o == int(s) || a.suspected(core.MSSID(o), now) {
			continue
		}
		a.monPending++
		a.ctx.SendFixed(s, core.MSSID(o), r2Probe{Origin: s, Nonce: a.monNonce}, cost.CatControl)
	}
	if a.monPending == 0 {
		a.concludeRound(s)
	}
}

// probeReply folds one reply into the monitor's round; the round concludes
// when every probed station has answered. Replies from abandoned rounds (or
// arriving after a fresh round reset the nonce) are ignored.
func (a *R2) probeReply(at core.MSSID, m r2ProbeReply) {
	if m.Nonce != a.monNonce || a.monPending == 0 {
		return
	}
	a.monPending--
	if m.HasToken {
		a.monSawToken = true
	}
	if m.LastSeen > a.monMaxSeen {
		a.monMaxSeen = m.LastSeen
	}
	if m.Gen > a.monMaxGen {
		a.monMaxGen = m.Gen
	}
	if m.Val > a.monMaxVal {
		a.monMaxVal = m.Val
	}
	if a.monPending == 0 {
		a.concludeRound(at)
	}
}

// concludeRound decides, on a complete view of the live stations, whether
// the token is lost, and regenerates it if so.
func (a *R2) concludeRound(at core.MSSID) {
	if a.parked || a.monSawToken {
		return
	}
	now := a.ctx.Now()
	if now-a.monMaxSeen <= a.opts.Recovery.Timeout {
		return
	}
	gen := a.monMaxGen + 1
	a.regens++
	a.ctx.NoteTokenRegeneration()
	for o := 0; o < a.ctx.M(); o++ {
		if o == int(at) || a.suspected(core.MSSID(o), now) {
			continue
		}
		a.ctx.SendFixed(at, core.MSSID(o), r2NewGen{Gen: gen}, cost.CatControl)
	}
	// Inject the replacement at the monitor by fiat (it elects itself; no
	// transmission). Val resumes from the highest any live station saw, so
	// R2′ admission never replays a traversal.
	a.tokenArrives(at, r2Token{Gen: gen, Val: a.monMaxVal})
}

// checkSingleToken panics if a live token arrives while another station
// holds one of the same or newer generation — the "counted, never two"
// invariant the recovery design must preserve.
func (a *R2) checkSingleToken(at core.MSSID, tok r2Token) {
	for s := range a.mss {
		if core.MSSID(s) == at {
			continue
		}
		if a.mss[s].holding && a.mss[s].token.Gen >= tok.Gen {
			panic(fmt.Sprintf("ring: two live tokens: gen %d arriving at mss%d while mss%d holds gen %d",
				tok.Gen, int(at), s, a.mss[s].token.Gen))
		}
	}
}

// nextLive returns the ring successor of at, skipping currently-suspected
// stations so the token is not handed straight into a known-dead cell.
func (a *R2) nextLive(at core.MSSID) core.MSSID {
	m := a.ctx.M()
	next := core.MSSID((int(at) + 1) % m)
	if a.opts.Recovery == nil {
		return next
	}
	now := a.ctx.Now()
	for hops := 1; hops < m && a.suspected(next, now); hops++ {
		next = core.MSSID((int(next) + 1) % m)
	}
	return next
}

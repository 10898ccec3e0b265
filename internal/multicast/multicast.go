// Package multicast implements exactly-once, totally-ordered multicast to
// mobile recipients — the problem of the paper's reference [1] (Acharya &
// Badrinath, ICDCS 1993), which the Section-2 model's handoff procedure
// exists to support ("a MSS may maintain algorithm-specific data structures
// on behalf of a local MH ... transferred to the new MSS").
//
// Protocol:
//
//   - a fixed sequencer MSS assigns sequence numbers; sources relay
//     messages to it over the wired network;
//   - the sequencer floods each message to every MSS (FIFO wired channels
//     give every MSS the same totally-ordered log);
//   - each MSS *owns* a delivery watermark for the members currently in
//     its cell and delivers log entries past the watermark over the
//     wireless link, in order;
//   - when a member switches cells, the new MSS requests the watermark
//     from the previous one (the handoff); ownership moves with it, so no
//     entry is ever delivered twice, and the backlog accumulated while the
//     member was between cells is delivered on arrival;
//   - a delivery that fails because the member disconnected rolls the
//     watermark back, so the entry is redelivered after reconnection;
//   - the member itself keeps a tiny in-order filter (expected sequence
//     number plus a reorder buffer): entries that arrive early — a chased
//     copy racing a direct downlink after a handoff — wait their turn, and
//     entries redelivered after a rollback are dropped as duplicates.
//
// The station-side watermark machinery guarantees at-least-once delivery
// under arbitrary mobility; the member-side filter turns that into
// exactly-once, in sequence order, end to end.
//
// One retry loop in the protocol is bounded rather than eternal: a
// watermark rollback chasing a member that keeps disconnecting is retried
// at most maxRollbackTries times before the group gives up on that chase
// and counts it in LostRollbacks. The bound loses nothing silently — the
// abandoned member's watermark is simply not rolled back, so the entry is
// redelivered through the ordinary failure path when the member next
// reconnects and a delivery is attempted; the counter exists so tests and
// operators can see how often the pathological chase was cut short.
package multicast

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
)

// maxRollbackTries bounds how often a bounced watermark rollback is
// re-sent after a member re-disconnects mid-chase. Past the bound the
// rollback is abandoned and counted in LostRollbacks (see the package
// comment for why this is safe).
const maxRollbackTries = 5

// rollbackRetryDelay is how long a bounced rollback waits before chasing
// the member again.
const rollbackRetryDelay = 500

// Options configure a multicast group.
type Options struct {
	// Sequencer is the MSS that orders messages.
	Sequencer core.MSSID
	// OnDeliver fires for every delivery to a member.
	OnDeliver func(at core.MHID, seq int64, payload any)
}

// Protocol messages.
type (
	// mcPublish carries a new message from a source MH to its local MSS.
	mcPublish struct {
		Payload any
	}

	// mcToSequencer relays a message to the sequencer.
	mcToSequencer struct {
		Payload any
	}

	// mcFlood carries a sequenced entry to every MSS.
	mcFlood struct {
		Seq     int64
		Payload any
	}

	// mcDeliver is the wireless delivery of one entry to a member.
	mcDeliver struct {
		Seq     int64
		Payload any
	}

	// mcStateReq asks the previous MSS for a member's watermark. Epoch is
	// the member's join counter at request time, used to prune requests
	// superseded by the member returning to the owner's cell.
	mcStateReq struct {
		MH     core.MHID
		NewMSS core.MSSID
		Epoch  int64
	}

	// mcStateRep transfers watermark ownership to the new MSS.
	mcStateRep struct {
		MH   core.MHID
		Next int64
	}
)

type mcMSSState struct {
	log []any
	// next is the delivery watermark of each member this MSS currently
	// owns; absence means ownership lies elsewhere.
	next map[core.MHID]int64
	// pendingReq parks a successor's watermark request that arrived before
	// this MSS obtained ownership itself (rapid multi-hop moves form a
	// request chain that resolves as ownership travels down it).
	pendingReq map[core.MHID]mcStateReq
	// pendingRollback parks a rollback that arrived before ownership did.
	pendingRollback map[core.MHID]int64
}

// Multicast is one exactly-once multicast group.
type Multicast struct {
	ctx     core.Context
	opts    Options
	members *core.Participants

	mss []mcMSSState
	// lastJoinMSS/lastJoinEpoch record each member's most recent join, the
	// oracle that keeps watermark ownership travelling along the member's
	// actual trajectory (handlers run serialized, so this simulation-global
	// view is safe on both runtimes).
	lastJoinMSS   map[core.MHID]core.MSSID
	lastJoinEpoch map[core.MHID]int64
	// Per-member receive filter: the next sequence number to hand to the
	// application and a buffer of early arrivals.
	expected map[core.MHID]int64
	early    map[core.MHID]map[int64]any

	seqNext           int64
	published         int64
	delivered         int64
	handoffs          int64
	rollbacks         int64
	lostRollbacks     int64
	duplicatesDropped int64
}

var (
	_ core.Algorithm              = (*Multicast)(nil)
	_ core.MSSHandler             = (*Multicast)(nil)
	_ core.MHHandler              = (*Multicast)(nil)
	_ core.JoinObserver           = (*Multicast)(nil)
	_ core.DeliveryFailureHandler = (*Multicast)(nil)
	_ core.TimerHandler           = (*Multicast)(nil)
)

// New registers a multicast group over the given members. Watermark
// ownership starts at each member's current cell.
func New(reg core.Registrar, members []core.MHID, opts Options) (*Multicast, error) {
	set, err := core.NewParticipants(reg, members)
	if err != nil {
		return nil, fmt.Errorf("multicast: %w", err)
	}
	if int(opts.Sequencer) < 0 || int(opts.Sequencer) >= set.M() {
		return nil, fmt.Errorf("multicast: invalid sequencer mss%d", int(opts.Sequencer))
	}
	n := set.Len()
	g := &Multicast{
		opts:          opts,
		members:       set,
		lastJoinMSS:   make(map[core.MHID]core.MSSID, n),
		lastJoinEpoch: make(map[core.MHID]int64, n),
		expected:      make(map[core.MHID]int64, n),
		early:         make(map[core.MHID]map[int64]any, n),
	}
	g.ctx = reg.Register(g)
	g.mss = make([]mcMSSState, g.ctx.M())
	for i := range g.mss {
		g.mss[i].next = make(map[core.MHID]int64)
		g.mss[i].pendingReq = make(map[core.MHID]mcStateReq)
		g.mss[i].pendingRollback = make(map[core.MHID]int64)
	}
	for i, mh := range set.Hosts() {
		if at, ok := set.Cell(i); ok {
			g.mss[at].next[mh] = 0
		}
	}
	return g, nil
}

// Name implements core.Algorithm.
func (g *Multicast) Name() string { return "multicast/exactly-once" }

// Published reports messages accepted for sequencing.
func (g *Multicast) Published() int64 { return g.published }

// Delivered reports member deliveries completed.
func (g *Multicast) Delivered() int64 { return g.delivered }

// Handoffs reports watermark transfers between MSSs.
func (g *Multicast) Handoffs() int64 { return g.handoffs }

// Rollbacks reports watermark rollbacks after failed deliveries.
func (g *Multicast) Rollbacks() int64 { return g.rollbacks }

// Publish submits payload from the given member (any member may publish).
func (g *Multicast) Publish(from core.MHID, payload any) error {
	if !g.members.Has(from) {
		return fmt.Errorf("multicast: mh%d is not a member", int(from))
	}
	if err := g.ctx.SendFromMH(from, mcPublish{Payload: payload}, cost.CatAlgorithm); err != nil {
		return fmt.Errorf("multicast: publish: %w", err)
	}
	return nil
}

// HandleMSS implements core.MSSHandler.
func (g *Multicast) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
	switch m := msg.(type) {
	case mcPublish:
		if !from.IsMH {
			panic("multicast: publish must come from a MH")
		}
		ctx.SendFixed(at, g.opts.Sequencer, mcToSequencer{Payload: m.Payload}, cost.CatAlgorithm)
	case mcToSequencer:
		if at != g.opts.Sequencer {
			panic(fmt.Sprintf("multicast: sequencing request at mss%d, sequencer is mss%d", int(at), int(g.opts.Sequencer)))
		}
		seq := g.seqNext
		g.seqNext++
		g.published++
		flood := mcFlood{Seq: seq, Payload: m.Payload}
		for i := 0; i < ctx.M(); i++ {
			if core.MSSID(i) == at {
				g.appendAndDrain(ctx, at, flood)
				continue
			}
			ctx.SendFixed(at, core.MSSID(i), flood, cost.CatAlgorithm)
		}
	case mcFlood:
		g.appendAndDrain(ctx, at, m)
	case mcStateReq:
		st := &g.mss[at]
		next, owned := st.next[m.MH]
		if !owned {
			// Not (yet) the owner: this MSS has itself requested the
			// watermark from its predecessor. Park the successor's request;
			// it is served the moment ownership arrives.
			if cur, parked := st.pendingReq[m.MH]; !parked || m.Epoch > cur.Epoch {
				st.pendingReq[m.MH] = m
			}
			return
		}
		if g.lastJoinMSS[m.MH] == at && g.lastJoinEpoch[m.MH] > m.Epoch {
			// The member has since returned to this cell; the request is
			// superseded and ownership stays put.
			return
		}
		delete(st.next, m.MH)
		g.handoffs++
		ctx.SendFixed(at, m.NewMSS, mcStateRep{MH: m.MH, Next: next}, cost.CatLocation)
	case mcStateRep:
		st := &g.mss[at]
		if req, parked := st.pendingReq[m.MH]; parked {
			delete(st.pendingReq, m.MH)
			if !(g.lastJoinMSS[m.MH] == at && g.lastJoinEpoch[m.MH] > req.Epoch) {
				// Ownership passes straight through to the next cell in the
				// member's trajectory.
				g.handoffs++
				ctx.SendFixed(at, req.NewMSS, mcStateRep{MH: m.MH, Next: m.Next}, cost.CatLocation)
				return
			}
			// The parked request was superseded by the member returning
			// here; adopt ownership instead.
		}
		next := m.Next
		if rb, parked := st.pendingRollback[m.MH]; parked {
			delete(st.pendingRollback, m.MH)
			if rb < next {
				g.rollbacks++
				next = rb
			}
		}
		st.next[m.MH] = next
		g.drainMember(ctx, at, m.MH)
	case mcStateRollback:
		st := &g.mss[at]
		next, owned := st.next[m.MH]
		if !owned {
			if cur, parked := st.pendingRollback[m.MH]; !parked || m.Seq < cur {
				st.pendingRollback[m.MH] = m.Seq
			}
			return
		}
		if m.Seq < next {
			g.rollbacks++
			st.next[m.MH] = m.Seq
			g.drainMember(ctx, at, m.MH)
		}
	default:
		panic(fmt.Sprintf("multicast: MSS received unexpected message %T", msg))
	}
}

// HandleMH implements core.MHHandler: the member-side in-order filter.
// Duplicates (redeliveries after a rollback) are dropped; early arrivals (a
// chased copy overtaken by a direct downlink after a handoff) are buffered
// until their turn.
func (g *Multicast) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	m, ok := msg.(mcDeliver)
	if !ok {
		panic(fmt.Sprintf("multicast: MH received unexpected message %T", msg))
	}
	exp := g.expected[at]
	switch {
	case m.Seq < exp:
		g.duplicatesDropped++
		return
	case m.Seq > exp:
		buf := g.early[at]
		if buf == nil {
			buf = make(map[int64]any)
			g.early[at] = buf
		}
		buf[m.Seq] = m.Payload
		return
	}
	g.deliverUp(at, m.Seq, m.Payload)
	exp = m.Seq + 1
	buf := g.early[at]
	for {
		payload, ok := buf[exp]
		if !ok {
			break
		}
		delete(buf, exp)
		g.deliverUp(at, exp, payload)
		exp++
	}
	g.expected[at] = exp
}

// deliverUp hands one in-order entry to the application.
func (g *Multicast) deliverUp(at core.MHID, seq int64, payload any) {
	g.delivered++
	if g.opts.OnDeliver != nil {
		g.opts.OnDeliver(at, seq, payload)
	}
}

// DuplicatesDropped reports redelivered entries the member-side filter
// suppressed.
func (g *Multicast) DuplicatesDropped() int64 { return g.duplicatesDropped }

// OnJoin implements core.JoinObserver: the new MSS pulls the member's
// watermark from the previous cell (the Section-2 handoff). A leave or a
// disconnect changes nothing: the old cell keeps the watermark until then.
func (g *Multicast) OnJoin(ctx core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, wasDisconnected bool) {
	if !g.members.Has(mh) {
		return
	}
	g.lastJoinEpoch[mh]++
	g.lastJoinMSS[mh] = mss
	if _, owned := g.mss[mss].next[mh]; owned {
		// Returning to a cell that still owns the watermark (no
		// intervening handoff): deliver any backlog directly.
		g.drainMember(ctx, mss, mh)
		return
	}
	ctx.SendFixed(mss, prev, mcStateReq{MH: mh, NewMSS: mss, Epoch: g.lastJoinEpoch[mh]}, cost.CatLocation)
}

// OnDeliveryFailure implements core.DeliveryFailureHandler: a delivery
// bounced off a disconnected member, so its watermark rolls back for
// redelivery after reconnection.
func (g *Multicast) OnDeliveryFailure(ctx core.Context, at core.MSSID, mh core.MHID, msg core.Message, _ core.FailReason) {
	if rb, ok := msg.(mcStateRollback); ok {
		// The rollback itself bounced off a re-disconnected member: retry a
		// bounded number of times; if the member stays away, nothing is
		// owed until it reconnects, at which point a fresh failure path
		// repeats this.
		if rb.Tries < maxRollbackTries {
			rb.Tries++
			ctx.After(rollbackRetryDelay, mcRollbackRetry{At: at, Rollback: rb})
		} else {
			g.lostRollbacks++
		}
		return
	}
	m, ok := msg.(mcDeliver)
	if !ok {
		return
	}
	st := &g.mss[at]
	next, owned := st.next[mh]
	if !owned {
		// Ownership moved while the failure travelled back; the watermark
		// it carried already counted this entry. Roll it back wherever the
		// member now is (the owner, or an MSS that will park it until it
		// becomes the owner).
		ctx.SendToMSSOfMH(at, mh, mcStateRollback{MH: mh, Seq: m.Seq}, cost.CatLocation)
		return
	}
	if m.Seq < next {
		g.rollbacks++
		st.next[mh] = m.Seq
		g.drainMember(ctx, at, mh)
	}
}

// mcStateRollback rolls a remote owner's watermark back after a failed
// delivery raced a handoff.
type mcStateRollback struct {
	MH    core.MHID
	Seq   int64
	Tries int
}

// mcRollbackRetry is the timer message that chases a bounced rollback
// again from At.
type mcRollbackRetry struct {
	At       core.MSSID
	Rollback mcStateRollback
}

// HandleTimer implements core.TimerHandler: a bounced rollback's retry
// delay is over.
func (g *Multicast) HandleTimer(ctx core.Context, msg core.Message) {
	m := msg.(mcRollbackRetry)
	ctx.SendToMSSOfMH(m.At, m.Rollback.MH, m.Rollback, cost.CatLocation)
}

// appendAndDrain appends a sequenced entry to the local log and delivers to
// owned, local members.
func (g *Multicast) appendAndDrain(ctx core.Context, at core.MSSID, m mcFlood) {
	st := &g.mss[at]
	if int64(len(st.log)) != m.Seq {
		// FIFO wired channels from the single sequencer make gaps
		// impossible; a mismatch is a protocol bug.
		panic(fmt.Sprintf("multicast: mss%d got seq %d with log length %d", int(at), m.Seq, len(st.log)))
	}
	st.log = append(st.log, m.Payload)
	for _, mh := range g.members.Hosts() {
		if _, owned := st.next[mh]; owned {
			g.drainMember(ctx, at, mh)
		}
	}
}

// drainMember delivers every entry past the member's watermark while it is
// local.
func (g *Multicast) drainMember(ctx core.Context, at core.MSSID, mh core.MHID) {
	st := &g.mss[at]
	next, owned := st.next[mh]
	if !owned {
		return
	}
	for next < int64(len(st.log)) {
		if !ctx.IsLocal(at, mh) {
			break
		}
		entry := mcDeliver{Seq: next, Payload: st.log[next]}
		if err := ctx.SendToLocalMH(at, mh, entry, cost.CatAlgorithm); err != nil {
			break
		}
		next++
	}
	st.next[mh] = next
}

// LostRollbacks reports rollbacks abandoned after repeated failures
// (possible only when a member re-disconnects forever mid-redelivery).
func (g *Multicast) LostRollbacks() int64 { return g.lostRollbacks }

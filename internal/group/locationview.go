package group

import (
	"fmt"
	"sort"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// Location-view protocol messages (§4.3).
type (
	// lvUp carries a group message from a member to its local MSS.
	lvUp struct {
		Payload any
	}

	// lvForward fans a group message out to the MSSs of the view.
	lvForward struct {
		From    core.MHID
		Payload any
	}

	// lvFallback routes a group message through the coordinator when the
	// sender's MSS has no view copy yet (its addition is still in flight).
	lvFallback struct {
		From    core.MHID
		Payload any
	}

	// lvAddReq is sent by the new MSS M to the previous MSS M' after a
	// member joined a cell outside the view: "M requests M' to notify the
	// group coordinator to include M in LV(G)". AddSeq is M's change
	// sequence number, which lets the coordinator order this addition
	// against a racing deletion of M (an addition travels two hops, a
	// deletion one, so they can arrive out of causal order).
	lvAddReq struct {
		NewMSS core.MSSID
		Member core.MHID
		AddSeq int64
	}

	// lvCoordReq asks the coordinator to update the view. A combined
	// request (both flags set) covers the sole member of a cell moving to a
	// cell outside the view. AddSeq/DelSeq are the change sequence numbers
	// stamped by the added/deleted cell itself.
	lvCoordReq struct {
		HasAdd bool
		Add    core.MSSID
		AddSeq int64
		HasDel bool
		Del    core.MSSID
		DelSeq int64
	}

	// lvFullCopy delivers the complete view to a newly included MSS.
	// AddSeq is the sequence number of the addition it answers.
	lvFullCopy struct {
		View   []core.MSSID
		AddSeq int64
	}

	// lvInc is an incremental view update distributed to view members.
	// DelSeq is the sequence number of the deletion it announces.
	lvInc struct {
		HasAdd bool
		Add    core.MSSID
		HasDel bool
		Del    core.MSSID
		DelSeq int64
	}

	// lvCombineDone is the timer message that ends a cell's CombineWindow:
	// the deletion withheld at Epoch goes out unless a join cancelled it.
	lvCombineDone struct {
		MSS   core.MSSID
		Epoch int
	}
)

// lvMSSState is the per-MSS protocol state.
type lvMSSState struct {
	inView bool
	view   map[core.MSSID]bool
	// changeSeq numbers this MSS's own view-change requests (its additions
	// and deletions), giving the coordinator a causal order per cell.
	changeSeq int64
	// pendingDelete marks that this MSS's last local member departed and a
	// deletion request is being withheld briefly in case it can be combined
	// with the destination's addition request (the paper's combined case).
	pendingDelete bool
	deleteEpoch   int
	// deleteInFlight is the sequence number of this cell's deletion request
	// whose effect has not come back yet, 0 when none; a member joining in
	// that window must trigger a (higher-sequenced) re-addition even though
	// the local copy still says "in view". Only an answer to that request
	// clears it: the lvInc announcing that deletion, or a full copy
	// answering an addition stamped after it. A full copy answering an
	// earlier addition is overtaken by the deletion, which the coordinator
	// will still apply.
	deleteInFlight int64
}

// LocationViewOptions extend Options for the location-view strategy.
type LocationViewOptions struct {
	Options
	// Coordinator is the MSS that serialises view changes. It need not host
	// any member.
	Coordinator core.MSSID
	// CombineWindow is how long an emptied MSS withholds its deletion
	// request waiting for a possible combined addition (paper §4.3). Zero
	// sends deletions immediately (never combining).
	CombineWindow sim.Time
}

// LocationView is the paper's proposed strategy (§4.3): the static tier
// maintains LV(G) — the set of MSSs with at least one group member — with
// all changes serialised through a coordinator MSS. Group messages travel
// once up the wireless link, across the view over the fixed network, and
// once down per recipient.
type LocationView struct {
	ctx     core.Context
	opts    LocationViewOptions
	members *core.Participants

	mss    []lvMSSState
	master map[core.MSSID]bool // coordinator's authoritative view
	// lastSeq is the coordinator's record of the highest change sequence
	// applied per cell; stale (overtaken) requests are discarded.
	lastSeq map[core.MSSID]int64

	sent       int64
	delivered  int64
	updates    int64 // coordinator-applied view changes
	fallbacks  int64 // group messages routed through the coordinator
	maxView    int
	combined   int64 // combined add+delete requests
	addReqs    int64
	deleteReqs int64
}

var (
	_ Comm                    = (*LocationView)(nil)
	_ core.MSSHandler         = (*LocationView)(nil)
	_ core.MHHandler          = (*LocationView)(nil)
	_ core.JoinObserver       = (*LocationView)(nil)
	_ core.LeaveObserver      = (*LocationView)(nil)
	_ core.DisconnectObserver = (*LocationView)(nil)
	_ core.TimerHandler       = (*LocationView)(nil)
)

// NewLocationView registers a location-view group over the given members,
// seeding LV(G) from current member locations.
func NewLocationView(reg core.Registrar, members []core.MHID, opts LocationViewOptions) (*LocationView, error) {
	set, err := core.NewParticipants(reg, members)
	if err != nil {
		return nil, fmt.Errorf("group: %w", err)
	}
	if int(opts.Coordinator) < 0 || int(opts.Coordinator) >= set.M() {
		return nil, fmt.Errorf("group: invalid coordinator mss%d", int(opts.Coordinator))
	}
	g := &LocationView{
		opts:    opts,
		members: set,
		master:  make(map[core.MSSID]bool),
		lastSeq: make(map[core.MSSID]int64),
	}
	g.ctx = reg.Register(g)
	g.mss = make([]lvMSSState, g.ctx.M())
	for i := range set.Len() {
		if at, ok := set.Cell(i); ok {
			g.master[at] = true
		}
	}
	for id := range g.master {
		g.mss[id].inView = true
		g.mss[id].view = g.cloneMaster()
	}
	g.maxView = len(g.master)
	return g, nil
}

// Name implements core.Algorithm.
func (g *LocationView) Name() string { return "group/location-view" }

// Sent implements Comm.
func (g *LocationView) Sent() int64 { return g.sent }

// Delivered implements Comm.
func (g *LocationView) Delivered() int64 { return g.delivered }

// Updates reports coordinator-applied view changes.
func (g *LocationView) Updates() int64 { return g.updates }

// Fallbacks reports group messages that had to route via the coordinator
// because the sender's MSS had no view copy yet.
func (g *LocationView) Fallbacks() int64 { return g.fallbacks }

// CombinedRequests reports add+delete requests combined into one message.
func (g *LocationView) CombinedRequests() int64 { return g.combined }

// ViewSize returns the coordinator's current |LV(G)|.
func (g *LocationView) ViewSize() int { return len(g.master) }

// MaxViewSize returns the largest |LV(G)| observed (the paper's |LV|max).
func (g *LocationView) MaxViewSize() int { return g.maxView }

// View returns the coordinator's current view, sorted.
func (g *LocationView) View() []core.MSSID {
	out := make([]core.MSSID, 0, len(g.master))
	for id := range g.master {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Send implements Comm: uplink to the local MSS, which fans out across the
// view.
func (g *LocationView) Send(from core.MHID, payload any) error {
	if !g.members.Has(from) {
		return fmt.Errorf("group: mh%d is not a member", int(from))
	}
	g.sent++
	if err := g.ctx.SendFromMH(from, lvUp{Payload: payload}, cost.CatAlgorithm); err != nil {
		return fmt.Errorf("group: location-view send: %w", err)
	}
	return nil
}

// HandleMSS implements core.MSSHandler.
func (g *LocationView) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
	switch m := msg.(type) {
	case lvUp:
		if !from.IsMH {
			panic("group: lvUp must come from a MH")
		}
		g.distribute(ctx, at, from.MH, m.Payload)
	case lvForward:
		g.deliverLocal(ctx, at, m.From, m.Payload, cost.CatAlgorithm)
	case lvFallback:
		// Coordinator distributes on behalf of an out-of-view MSS.
		if at != g.opts.Coordinator {
			panic(fmt.Sprintf("group: fallback sent to mss%d, coordinator is mss%d", int(at), int(g.opts.Coordinator)))
		}
		for _, id := range g.masterSorted() {
			ctx.SendFixed(at, id, lvForward{From: m.From, Payload: m.Payload}, cost.CatStale)
		}
	case lvAddReq:
		g.addReqs++
		st := &g.mss[at]
		req := lvCoordReq{HasAdd: true, Add: m.NewMSS, AddSeq: m.AddSeq}
		if st.pendingDelete && !g.hasLocalMembers(ctx, at) {
			st.pendingDelete = false
			st.changeSeq++
			st.deleteInFlight = st.changeSeq
			req.HasDel = true
			req.Del = at
			req.DelSeq = st.changeSeq
			g.combined++
		}
		ctx.SendFixed(at, g.opts.Coordinator, req, cost.CatLocation)
	case lvCoordReq:
		g.applyAtCoordinator(ctx, at, m)
	case lvFullCopy:
		st := &g.mss[at]
		if m.AddSeq > st.deleteInFlight {
			st.deleteInFlight = 0
		}
		if at == g.opts.Coordinator {
			g.syncCoordinatorCopy()
			return
		}
		st.inView = true
		st.view = make(map[core.MSSID]bool, len(m.View))
		for _, id := range m.View {
			st.view[id] = true
		}
	case lvInc:
		st := &g.mss[at]
		if m.HasDel && m.Del == at {
			st.inView = false
			if m.DelSeq == st.deleteInFlight {
				st.deleteInFlight = 0
			}
			st.view = nil
			return
		}
		if !st.inView {
			return // a full copy is in flight; it will carry this change
		}
		if m.HasAdd {
			st.view[m.Add] = true
		}
		if m.HasDel {
			delete(st.view, m.Del)
		}
	default:
		panic(fmt.Sprintf("group: location-view MSS received unexpected message %T", msg))
	}
}

// HandleMH implements core.MHHandler.
func (g *LocationView) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	m, ok := msg.(groupMsg)
	if !ok {
		panic(fmt.Sprintf("group: location-view MH received unexpected message %T", msg))
	}
	g.delivered++
	if g.opts.OnDeliver != nil {
		g.opts.OnDeliver(at, m.From, m.Payload)
	}
}

// OnJoin implements core.JoinObserver: a member joining a cell outside
// the view triggers the addition protocol through the previous MSS; any
// member joining cancels a withheld deletion for that cell.
func (g *LocationView) OnJoin(ctx core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, wasDisconnected bool) {
	if !g.members.Has(mh) {
		return
	}
	st := &g.mss[mss]
	st.pendingDelete = false
	st.deleteEpoch++
	if st.inView && st.deleteInFlight == 0 {
		return // a move within the view does not change LV(G)
	}
	// "The MH first supplies the id of the MSS M' of its previous cell to
	// M, along with the join() message. M requests M' to notify the group
	// coordinator to include M in LV(G)."
	st.changeSeq++
	ctx.SendFixed(mss, prev, lvAddReq{NewMSS: mss, Member: mh, AddSeq: st.changeSeq}, cost.CatLocation)
}

// OnLeave implements core.LeaveObserver: when the last local member
// leaves, the cell's deletion from the view is requested — withheld for
// CombineWindow so it can be combined with the destination's addition.
func (g *LocationView) OnLeave(ctx core.Context, mss core.MSSID, mh core.MHID) {
	if !g.members.Has(mh) {
		return
	}
	st := &g.mss[mss]
	if g.hasLocalMembers(ctx, mss) {
		// Other members remain; the view keeps this cell. Note this runs
		// even when the cell's own view copy has not arrived yet (an
		// addition still in flight): the deletion request below is what
		// keeps the eventual view exact in that race.
		return
	}
	st.pendingDelete = true
	st.deleteEpoch++
	if g.opts.CombineWindow <= 0 {
		g.sendDelete(ctx, mss)
		return
	}
	ctx.After(g.opts.CombineWindow, lvCombineDone{MSS: mss, Epoch: st.deleteEpoch})
}

// HandleTimer implements core.TimerHandler: a combine window closed.
func (g *LocationView) HandleTimer(ctx core.Context, msg core.Message) {
	m := msg.(lvCombineDone)
	cur := &g.mss[m.MSS]
	if !cur.pendingDelete || cur.deleteEpoch != m.Epoch || g.hasLocalMembers(ctx, m.MSS) {
		return
	}
	g.sendDelete(ctx, m.MSS)
}

// sendDelete asks the coordinator to delete mss from the view.
func (g *LocationView) sendDelete(ctx core.Context, mss core.MSSID) {
	cur := &g.mss[mss]
	cur.pendingDelete = false
	cur.changeSeq++
	cur.deleteInFlight = cur.changeSeq
	g.deleteReqs++
	ctx.SendFixed(mss, g.opts.Coordinator,
		lvCoordReq{HasDel: true, Del: mss, DelSeq: cur.changeSeq}, cost.CatLocation)
}

// OnDisconnect implements core.DisconnectObserver: a disconnecting member
// counts as leaving its cell for view purposes.
func (g *LocationView) OnDisconnect(ctx core.Context, mss core.MSSID, mh core.MHID) {
	g.OnLeave(ctx, mss, mh)
}

// distribute fans a group message out from the sender's MSS.
func (g *LocationView) distribute(ctx core.Context, at core.MSSID, from core.MHID, payload any) {
	st := &g.mss[at]
	if !st.inView {
		// The sender's cell is not (yet) in the view — its addition is in
		// flight. Route through the coordinator; charged as stale traffic
		// because a settled view never takes this path.
		g.fallbacks++
		ctx.NoteGroupStaleLookup(from, at)
		ctx.SendFixed(at, g.opts.Coordinator, lvFallback{From: from, Payload: payload}, cost.CatStale)
		return
	}
	ids := make([]core.MSSID, 0, len(st.view))
	for id := range st.view {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id == at {
			continue
		}
		ctx.SendFixed(at, id, lvForward{From: from, Payload: payload}, cost.CatAlgorithm)
	}
	g.deliverLocal(ctx, at, from, payload, cost.CatAlgorithm)
}

// deliverLocal hands the message to every local member except the sender.
func (g *LocationView) deliverLocal(ctx core.Context, at core.MSSID, from core.MHID, payload any, cat cost.Category) {
	for _, mh := range ctx.LocalMHs(at) {
		if mh == from || !g.members.Has(mh) {
			continue
		}
		if err := ctx.SendToLocalMH(at, mh, groupMsg{From: from, Payload: payload}, cat); err != nil {
			panic(fmt.Sprintf("group: location-view local delivery: %v", err))
		}
	}
}

// applyAtCoordinator serialises a view change and distributes updates.
func (g *LocationView) applyAtCoordinator(ctx core.Context, at core.MSSID, req lvCoordReq) {
	if at != g.opts.Coordinator {
		panic(fmt.Sprintf("group: view change sent to mss%d, coordinator is mss%d", int(at), int(g.opts.Coordinator)))
	}
	// Apply each component in the issuing cell's causal order: a deletion
	// stamped later than an addition wins even if it arrives first.
	changed := false
	addAccepted := false
	added, removed := core.MSSID(-1), core.MSSID(-1)
	if req.HasAdd && req.AddSeq > g.lastSeq[req.Add] {
		g.lastSeq[req.Add] = req.AddSeq
		addAccepted = true
		if !g.master[req.Add] {
			g.master[req.Add] = true
			changed = true
			added = req.Add
		}
	}
	if req.HasDel && req.DelSeq > g.lastSeq[req.Del] {
		g.lastSeq[req.Del] = req.DelSeq
		if g.master[req.Del] {
			delete(g.master, req.Del)
			changed = true
			removed = req.Del
		}
	}
	if len(g.master) > g.maxView {
		g.maxView = len(g.master)
	}
	if addAccepted {
		// The newly included MSS receives the latest full copy (idempotent
		// if it already had one).
		ctx.SendFixed(at, req.Add, lvFullCopy{View: g.View(), AddSeq: req.AddSeq}, cost.CatLocation)
	}
	if !changed {
		return
	}
	g.updates++
	ctx.NoteGroupViewUpdate(added, removed, len(g.master))
	inc := lvInc{HasAdd: addAccepted, Add: req.Add, HasDel: req.HasDel && !g.master[req.Del], Del: req.Del, DelSeq: req.DelSeq}
	for _, id := range g.masterSorted() {
		if id == at || (req.HasAdd && id == req.Add) {
			continue // coordinator updates locally; Add got the full copy
		}
		ctx.SendFixed(at, id, inc, cost.CatLocation)
	}
	if req.HasDel && req.Del != at {
		// Tell the removed MSS to drop its copy.
		ctx.SendFixed(at, req.Del, inc, cost.CatLocation)
	}
	g.syncCoordinatorCopy()
}

// syncCoordinatorCopy makes the coordinator's own view copy (it has one
// when it hosts members) what the master says now. The coordinator applies
// every change to its copy in place, so a full copy it mailed itself on an
// earlier addition is a snapshot that later changes may have overtaken:
// taking the snapshot would resurrect a deleted cell — or the coordinator's
// own membership, after which a member joining its cell requests no
// addition and is never reached.
func (g *LocationView) syncCoordinatorCopy() {
	st := &g.mss[g.opts.Coordinator]
	st.inView = g.master[g.opts.Coordinator]
	st.view = nil
	if st.inView {
		st.view = g.cloneMaster()
	}
}

func (g *LocationView) hasLocalMembers(ctx core.Context, at core.MSSID) bool {
	for _, mh := range ctx.LocalMHs(at) {
		if g.members.Has(mh) {
			return true
		}
	}
	return false
}

func (g *LocationView) cloneMaster() map[core.MSSID]bool {
	out := make(map[core.MSSID]bool, len(g.master))
	for id := range g.master {
		out[id] = true
	}
	return out
}

func (g *LocationView) masterSorted() []core.MSSID {
	return g.View()
}

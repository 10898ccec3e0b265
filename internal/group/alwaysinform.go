package group

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
)

// locUpdate is the location update a member broadcasts to the group after a
// move (§4.2). Seq numbers the member's updates: two of them can reach a
// member out of order (each is routed through the sender's directory, and
// one may be chased), and only a newer one may overwrite an entry.
type locUpdate struct {
	Member core.MHID
	At     core.MSSID
	Seq    int64
}

// ldEntry is one LD(G) entry: where a member is, as of its Seq-th update.
type ldEntry struct {
	at  core.MSSID
	seq int64
}

// AlwaysInform is the location-directory strategy (§4.2): every member
// maintains LD(G), a map from member to its current MSS. Group messages
// route directly through the recorded MSS (2·Cwireless + Cfixed per member);
// every move broadcasts a location update of the same cost, so the
// effective cost per group message grows with MOB/MSG.
type AlwaysInform struct {
	ctx     core.Context
	opts    Options
	members *core.Participants

	// ld holds each member's copy of the location directory, indexed by the
	// member's slot (per-slot state for live-runtime compatibility).
	ld []map[core.MHID]ldEntry

	sent      int64
	delivered int64
	updates   int64
}

var (
	_ Comm              = (*AlwaysInform)(nil)
	_ core.MHHandler    = (*AlwaysInform)(nil)
	_ core.JoinObserver = (*AlwaysInform)(nil)
)

// NewAlwaysInform registers an always-inform group over the given members,
// seeding every member's directory from current locations.
func NewAlwaysInform(reg core.Registrar, members []core.MHID, opts Options) (*AlwaysInform, error) {
	set, err := core.NewParticipants(reg, members)
	if err != nil {
		return nil, fmt.Errorf("group: %w", err)
	}
	g := &AlwaysInform{opts: opts, members: set}
	g.ctx = reg.Register(g)
	g.ld = make([]map[core.MHID]ldEntry, set.Len())
	for i := range g.ld {
		g.ld[i] = make(map[core.MHID]ldEntry, set.Len())
		for j, member := range set.Hosts() {
			if at, ok := set.Cell(j); ok {
				g.ld[i][member] = ldEntry{at: at}
			}
		}
	}
	return g, nil
}

// Name implements core.Algorithm.
func (g *AlwaysInform) Name() string { return "group/always-inform" }

// Sent implements Comm.
func (g *AlwaysInform) Sent() int64 { return g.sent }

// Delivered implements Comm.
func (g *AlwaysInform) Delivered() int64 { return g.delivered }

// Updates reports how many location-update broadcasts members have sent.
func (g *AlwaysInform) Updates() int64 { return g.updates }

// Directory returns a copy of member mh's LD(G) (for tests).
func (g *AlwaysInform) Directory(mh core.MHID) (map[core.MHID]core.MSSID, error) {
	slot, ok := g.members.Slot(mh)
	if !ok {
		return nil, fmt.Errorf("group: mh%d is not a member", int(mh))
	}
	out := make(map[core.MHID]core.MSSID, len(g.ld[slot]))
	for k, v := range g.ld[slot] {
		out[k] = v.at
	}
	return out, nil
}

// Send implements Comm: one directory-routed copy per other member.
func (g *AlwaysInform) Send(from core.MHID, payload any) error {
	slot, ok := g.members.Slot(from)
	if !ok {
		return fmt.Errorf("group: mh%d is not a member", int(from))
	}
	g.sent++
	msg := groupMsg{From: from, Payload: payload}
	return g.fanOut(slot, from, msg, cost.CatAlgorithm)
}

// fanOut sends msg from the member in slot to every other member through
// the sender's directory.
func (g *AlwaysInform) fanOut(slot int, from core.MHID, msg core.Message, cat cost.Category) error {
	dir := g.ld[slot]
	for _, to := range g.members.Hosts() {
		if to == from {
			continue
		}
		via, ok := dir[to]
		if !ok {
			return fmt.Errorf("group: mh%d has no directory entry for mh%d", int(from), int(to))
		}
		if err := g.ctx.SendMHViaMSS(from, via.at, to, msg, cat); err != nil {
			return fmt.Errorf("group: always-inform send: %w", err)
		}
	}
	return nil
}

// HandleMH implements core.MHHandler.
func (g *AlwaysInform) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	slot, ok := g.members.Slot(at)
	if !ok {
		panic(fmt.Sprintf("group: always-inform delivery to non-member mh%d", int(at)))
	}
	switch m := msg.(type) {
	case groupMsg:
		g.delivered++
		if g.opts.OnDeliver != nil {
			g.opts.OnDeliver(at, m.From, m.Payload)
		}
	case locUpdate:
		if m.Seq > g.ld[slot][m.Member].seq {
			g.ld[slot][m.Member] = ldEntry{m.At, m.Seq}
		}
	default:
		panic(fmt.Sprintf("group: always-inform received unexpected message %T", msg))
	}
}

// OnJoin implements core.JoinObserver: after a move (or reconnect) the
// member broadcasts its new location to the whole group, updating its own
// entry locally.
func (g *AlwaysInform) OnJoin(ctx core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, wasDisconnected bool) {
	slot, ok := g.members.Slot(mh)
	if !ok {
		return
	}
	own := ldEntry{mss, g.ld[slot][mh].seq + 1}
	g.ld[slot][mh] = own
	g.updates++
	ctx.NoteGroupInform(mh, mss)
	update := locUpdate{Member: mh, At: mss, Seq: own.seq}
	if err := g.fanOut(slot, mh, update, cost.CatLocation); err != nil {
		panic(fmt.Sprintf("group: always-inform location update: %v", err))
	}
}

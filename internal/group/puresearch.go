package group

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
)

// PureSearch is the search-on-demand strategy (§4.1): members keep only the
// member list; every group message is a separate searched point-to-point
// message to each member. No state is maintained across moves, so the cost
// of a group message is independent of MOB.
type PureSearch struct {
	ctx       core.Context
	opts      Options
	members   *core.Participants
	sent      int64
	delivered int64
}

var (
	_ Comm           = (*PureSearch)(nil)
	_ core.MHHandler = (*PureSearch)(nil)
)

// NewPureSearch registers a pure-search group over the given members.
func NewPureSearch(reg core.Registrar, members []core.MHID, opts Options) (*PureSearch, error) {
	set, err := core.NewParticipants(reg, members)
	if err != nil {
		return nil, fmt.Errorf("group: %w", err)
	}
	g := &PureSearch{opts: opts, members: set}
	g.ctx = reg.Register(g)
	return g, nil
}

// Name implements core.Algorithm.
func (g *PureSearch) Name() string { return "group/pure-search" }

// Sent implements Comm.
func (g *PureSearch) Sent() int64 { return g.sent }

// Delivered implements Comm.
func (g *PureSearch) Delivered() int64 { return g.delivered }

// Send implements Comm: one searched MH-to-MH message per other member.
func (g *PureSearch) Send(from core.MHID, payload any) error {
	if !g.members.Has(from) {
		return fmt.Errorf("group: mh%d is not a member", int(from))
	}
	g.sent++
	msg := groupMsg{From: from, Payload: payload}
	for _, to := range g.members.Hosts() {
		if to == from {
			continue
		}
		if err := g.ctx.SendMHToMH(from, to, msg, cost.CatAlgorithm); err != nil {
			return fmt.Errorf("group: pure-search send: %w", err)
		}
	}
	return nil
}

// HandleMH implements core.MHHandler.
func (g *PureSearch) HandleMH(_ core.Context, at core.MHID, msg core.Message) {
	m, ok := msg.(groupMsg)
	if !ok {
		panic(fmt.Sprintf("group: pure-search received unexpected message %T", msg))
	}
	g.delivered++
	if g.opts.OnDeliver != nil {
		g.opts.OnDeliver(at, m.From, m.Payload)
	}
}

package core

import (
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// probe is a minimal algorithm recording every event it observes, used to
// exercise the network primitives directly.
type probe struct {
	name string

	mssGot   []probeMSSEvent
	mhGot    []probeMHEvent
	failures []probeFailure
	joins    []probeJoin
	leaves   []probeLeave
	discs    []probeLeave

	onMSS func(ctx Context, at MSSID, from From, msg Message)
	onMH  func(ctx Context, at MHID, msg Message)
}

type probeMSSEvent struct {
	At   MSSID
	From From
	Msg  Message
	T    sim.Time
}

type probeMHEvent struct {
	At  MHID
	Msg Message
	T   sim.Time
}

type probeFailure struct {
	At     MSSID
	MH     MHID
	Msg    Message
	Reason FailReason
}

type probeJoin struct {
	MSS     MSSID
	MH      MHID
	Prev    MSSID
	WasDisc bool
}

type probeLeave struct {
	MSS MSSID
	MH  MHID
}

var (
	_ Algorithm              = (*probe)(nil)
	_ MSSHandler             = (*probe)(nil)
	_ MHHandler              = (*probe)(nil)
	_ DeliveryFailureHandler = (*probe)(nil)
	_ JoinObserver           = (*probe)(nil)
	_ LeaveObserver          = (*probe)(nil)
	_ DisconnectObserver     = (*probe)(nil)
)

func (p *probe) Name() string {
	if p.name != "" {
		return p.name
	}
	return "probe"
}

func (p *probe) HandleMSS(ctx Context, at MSSID, from From, msg Message) {
	p.mssGot = append(p.mssGot, probeMSSEvent{At: at, From: from, Msg: msg, T: ctx.Now()})
	if p.onMSS != nil {
		p.onMSS(ctx, at, from, msg)
	}
}

func (p *probe) HandleMH(ctx Context, at MHID, msg Message) {
	p.mhGot = append(p.mhGot, probeMHEvent{At: at, Msg: msg, T: ctx.Now()})
	if p.onMH != nil {
		p.onMH(ctx, at, msg)
	}
}

func (p *probe) OnDeliveryFailure(ctx Context, at MSSID, mh MHID, msg Message, reason FailReason) {
	p.failures = append(p.failures, probeFailure{At: at, MH: mh, Msg: msg, Reason: reason})
}

func (p *probe) OnJoin(ctx Context, mss MSSID, mh MHID, prev MSSID, wasDisc bool) {
	p.joins = append(p.joins, probeJoin{MSS: mss, MH: mh, Prev: prev, WasDisc: wasDisc})
}

func (p *probe) OnLeave(ctx Context, mss MSSID, mh MHID) {
	p.leaves = append(p.leaves, probeLeave{MSS: mss, MH: mh})
}

func (p *probe) OnDisconnect(ctx Context, mss MSSID, mh MHID) {
	p.discs = append(p.discs, probeLeave{MSS: mss, MH: mh})
}

func newProbeSystem(t *testing.T, m, n int) (*System, *probe, Context) {
	t.Helper()
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p := &probe{}
	ctx := sys.Register(p)
	return sys, p, ctx
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero M", func(c *Config) { c.M = 0 }},
		{"zero N", func(c *Config) { c.N = 0 }},
		{"bad params", func(c *Config) { c.Params.Search = 0 }},
		{"bad wired", func(c *Config) { c.Wired = Delay{Min: 5, Max: 2} }},
		{"negative wireless", func(c *Config) { c.Wireless = Delay{Min: -1, Max: 2} }},
		{"bad search mode", func(c *Config) { c.SearchMode = SearchMode(9) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(3, 5)
			tt.mutate(&cfg)
			if _, err := NewSystem(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	cfg := DefaultConfig(3, 5)
	cfg.Placement = func(MHID) MSSID { return 7 }
	if _, err := NewSystem(cfg); err == nil {
		t.Error("out-of-range placement accepted")
	}
}

func TestInitialPlacementRoundRobin(t *testing.T) {
	sys, _, ctx := newProbeSystem(t, 3, 7)
	for i := 0; i < 7; i++ {
		at, status := sys.Where(MHID(i))
		if status != StatusConnected || at != MSSID(i%3) {
			t.Errorf("mh%d at mss%d (%v), want mss%d connected", i, int(at), status, i%3)
		}
		if !ctx.IsLocal(MSSID(i%3), MHID(i)) {
			t.Errorf("IsLocal(mss%d, mh%d) = false", i%3, i)
		}
	}
	got := ctx.LocalMHs(0)
	want := []MHID{0, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("LocalMHs(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LocalMHs(0) = %v, want %v", got, want)
		}
	}
}

func TestSendFixedFIFOPerPair(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 4)
	for i := 0; i < 20; i++ {
		ctx.SendFixed(0, 1, i, cost.CatAlgorithm)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mssGot) != 20 {
		t.Fatalf("got %d deliveries, want 20", len(p.mssGot))
	}
	for i, ev := range p.mssGot {
		if ev.Msg != i {
			t.Fatalf("delivery %d carried %v (FIFO violated)", i, ev.Msg)
		}
		if ev.At != 1 || ev.From.IsMH || ev.From.MSS != 0 {
			t.Fatalf("delivery %d at %v from %v", i, ev.At, ev.From)
		}
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed); got != 20 {
		t.Errorf("fixed charges = %d, want 20", got)
	}
}

func TestSendFixedSelfSendCharged(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 2, 2)
	ctx.SendFixed(1, 1, "self", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mssGot) != 1 || p.mssGot[0].At != 1 {
		t.Fatalf("self-send not delivered: %+v", p.mssGot)
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed); got != 1 {
		t.Errorf("self-send charges = %d, want 1", got)
	}
}

func TestBroadcastFixed(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 5, 2)
	ctx.BroadcastFixed(2, "hi", cost.CatControl)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mssGot) != 4 {
		t.Fatalf("broadcast reached %d MSSs, want 4", len(p.mssGot))
	}
	seen := make(map[MSSID]bool)
	for _, ev := range p.mssGot {
		if ev.At == 2 {
			t.Error("broadcast delivered to the sender")
		}
		seen[ev.At] = true
	}
	if len(seen) != 4 {
		t.Errorf("broadcast duplicated deliveries: %v", seen)
	}
}

func TestSendFromMHDelivery(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 6)
	if err := ctx.SendFromMH(4, "up", cost.CatAlgorithm); err != nil {
		t.Fatalf("SendFromMH: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mssGot) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(p.mssGot))
	}
	ev := p.mssGot[0]
	if ev.At != 1 || !ev.From.IsMH || ev.From.MH != 4 {
		t.Errorf("delivered at mss%d from %v, want mss1 from mh4", int(ev.At), ev.From)
	}
	tx, _ := sys.Meter().Energy(4)
	if tx != 1 {
		t.Errorf("mh4 tx energy = %d, want 1", tx)
	}
}

func TestSendFromMHWhileInTransitDeferred(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 3)
	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := ctx.SendFromMH(0, "deferred", cost.CatAlgorithm); err != nil {
		t.Fatalf("SendFromMH: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mssGot) != 1 || p.mssGot[0].At != 2 {
		t.Fatalf("deferred send delivered at %+v, want new cell mss2", p.mssGot)
	}
}

func TestSendFromMHDisconnectedFails(t *testing.T) {
	sys, _, ctx := newProbeSystem(t, 3, 3)
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if err := ctx.SendFromMH(1, "x", cost.CatAlgorithm); err == nil {
		t.Error("send from disconnected MH succeeded")
	}
}

func TestSendToMHLocalAndRemote(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 6)
	ctx.SendToMH(0, 0, "local", cost.CatAlgorithm)  // mh0 is at mss0
	ctx.SendToMH(0, 4, "remote", cost.CatAlgorithm) // mh4 is at mss1
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 2 {
		t.Fatalf("got %d MH deliveries, want 2", len(p.mhGot))
	}
	// Pessimistic search: both deliveries charge one, the local one too.
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch); got != 2 {
		t.Errorf("searches = %d, want 2 (pessimistic)", got)
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindWireless); got != 2 {
		t.Errorf("wireless = %d, want 2", got)
	}
}

func TestSendToMHFollowsMoveMidFlight(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 4)
	// Send to mh1 (at mss1) and immediately move it to mss3: the message
	// must chase it and still arrive.
	ctx.SendToMH(0, 1, "chase", cost.CatAlgorithm)
	if err := sys.Move(1, 3); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 || p.mhGot[0].At != 1 {
		t.Fatalf("chased delivery = %+v, want one delivery to mh1", p.mhGot)
	}
	if at, _ := sys.Where(1); at != 3 {
		t.Fatalf("mh1 at mss%d, want 3", int(at))
	}
	if sys.Stats().StaleReroutes == 0 {
		t.Error("expected stale re-routes for mid-flight move")
	}
	if got := sys.Meter().Count(cost.CatStale, cost.KindSearch); got == 0 {
		t.Error("stale search not charged to CatStale")
	}
}

func TestSendToMHDisconnectedNotifiesSender(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 3)
	if err := sys.Disconnect(2); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(50, func() {
		ctx.SendToMH(0, 2, "gone", cost.CatAlgorithm)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 0 {
		t.Fatalf("message delivered to disconnected MH: %+v", p.mhGot)
	}
	if len(p.failures) != 1 {
		t.Fatalf("failures = %+v, want 1", p.failures)
	}
	f := p.failures[0]
	if f.At != 0 || f.MH != 2 || f.Reason != FailDisconnected || f.Msg != "gone" {
		t.Errorf("failure = %+v", f)
	}
	if sys.Stats().FailedDeliveries != 1 {
		t.Errorf("failed deliveries = %d, want 1", sys.Stats().FailedDeliveries)
	}
}

func TestSendToMHWaitsForTransit(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 3)
	if err := sys.Move(0, 1); err != nil {
		t.Fatalf("Move: %v", err)
	}
	// While mh0 is between cells, the message parks and delivers after the
	// join.
	ctx.SendToMH(2, 0, "parked", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 {
		t.Fatalf("parked message deliveries = %d, want 1", len(p.mhGot))
	}
	if at, _ := sys.Where(0); at != 1 {
		t.Fatalf("mh0 at mss%d, want 1", int(at))
	}
}

func TestSendToLocalMHRequiresLocality(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 6)
	if err := ctx.SendToLocalMH(0, 4, "x", cost.CatAlgorithm); err == nil {
		t.Error("SendToLocalMH to non-local MH succeeded")
	}
	if err := ctx.SendToLocalMH(1, 4, "y", cost.CatAlgorithm); err != nil {
		t.Errorf("SendToLocalMH: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(p.mhGot))
	}
	// Local wireless only: no search charge.
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch); got != 0 {
		t.Errorf("searches = %d, want 0", got)
	}
}

func TestSendMHToMHPairFIFOAcrossMoves(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 4)
	// Stream messages from mh0 to mh1 while mh1 moves twice; deliveries
	// must arrive in send order despite re-routes.
	for i := 0; i < 10; i++ {
		i := i
		sys.Schedule(sim.Time(i*3), func() {
			if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
				t.Errorf("SendMHToMH: %v", err)
			}
		})
	}
	sys.Schedule(5, func() {
		if err := sys.Move(1, 2); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	sys.Schedule(80, func() {
		if at, st := sys.Where(1); st == StatusConnected && at == 2 {
			if err := sys.Move(1, 3); err != nil {
				t.Errorf("Move: %v", err)
			}
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 10 {
		t.Fatalf("deliveries = %d, want 10", len(p.mhGot))
	}
	for i, ev := range p.mhGot {
		if ev.Msg != i {
			t.Fatalf("delivery %d carried %v: pair FIFO violated (%+v)", i, ev.Msg, p.mhGot)
		}
	}
}

func TestSendMHViaMSSDirectAndStale(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 8)
	// Correct directory entry: mh5 is at mss1.
	if err := ctx.SendMHViaMSS(0, 1, 5, "direct", cost.CatAlgorithm); err != nil {
		t.Fatalf("SendMHViaMSS: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(p.mhGot))
	}
	// 2 wireless (up+down) + 1 fixed, no searches.
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch); got != 0 {
		t.Errorf("searches = %d, want 0", got)
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed); got != 1 {
		t.Errorf("fixed = %d, want 1", got)
	}

	// Stale entry: mh5 has moved to mss3; routing via mss1 must fall back
	// to a stale-charged search.
	if err := sys.Move(5, 3); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := ctx.SendMHViaMSS(0, 1, 5, "stale", cost.CatAlgorithm); err != nil {
		t.Fatalf("SendMHViaMSS: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(p.mhGot))
	}
	if got := sys.Meter().Count(cost.CatStale, cost.KindSearch); got != 1 {
		t.Errorf("stale searches = %d, want 1", got)
	}
}

func TestSendToMHViaFixedProxyPath(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 8)
	ctx.SendToMHVia(2, 1, 5, "via", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 || p.mhGot[0].Msg != "via" {
		t.Fatalf("deliveries = %+v", p.mhGot)
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed); got != 1 {
		t.Errorf("fixed = %d, want 1", got)
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch); got != 0 {
		t.Errorf("searches = %d, want 0", got)
	}
}

func TestSendToMSSOfMH(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 8)
	// mh6 is at mss2; the message must arrive at mss2's handler.
	ctx.SendToMSSOfMH(0, 6, "locate", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mssGot) != 1 || p.mssGot[0].At != 2 {
		t.Fatalf("deliveries = %+v, want one at mss2", p.mssGot)
	}
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindSearch); got != 1 {
		t.Errorf("searches = %d, want 1", got)
	}
	// No wireless: the MH itself is not touched.
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindWireless); got != 0 {
		t.Errorf("wireless = %d, want 0", got)
	}
}

func TestSendToMSSOfMHDisconnected(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 3)
	if err := sys.Disconnect(2); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(50, func() { ctx.SendToMSSOfMH(0, 2, "x", cost.CatAlgorithm) })
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.failures) != 1 {
		t.Fatalf("failures = %+v, want 1", p.failures)
	}
}

// greedyCustody is a custody hook that takes everything it is offered.
type greedyCustody struct{ offers int }

func (g *greedyCustody) OfferCustody(engine.MSSID, engine.MHID, engine.Message, engine.CustodyRef) bool {
	g.offers++
	return true
}

// TestSendToMSSOfMHNeverGoesToCustody: the chase is shared with SendToMH,
// the custody seam is not — a message for the station serving a MH is never
// stored for the MH. With a hook bound that accepts every offer, a
// disconnected destination still ends in the failure notification (one
// control message), and an overflowing in-transit queue still drops
// (uncharged), while the same overflow of a SendToMH is offered.
func TestSendToMSSOfMHNeverGoesToCustody(t *testing.T) {
	cfg := DefaultConfig(3, 3)
	cfg.WaiterLimit = 1
	cfg.Travel = FixedDelay(100)
	sys := MustNewSystem(cfg)
	p := &probe{}
	ctx := sys.Register(p)
	hook := &greedyCustody{}
	sys.Engine().BindCustody(hook)

	if err := sys.Disconnect(2); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	sys.Schedule(5, func() {
		if err := sys.Move(0, 1); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	sys.Schedule(50, func() {
		ctx.SendToMSSOfMH(0, 2, "to the station of a disconnected mh", cost.CatAlgorithm)
		ctx.SendToMSSOfMH(1, 0, "parked", cost.CatAlgorithm)
		ctx.SendToMSSOfMH(1, 0, "overflow", cost.CatAlgorithm)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hook.offers != 0 {
		t.Errorf("custody hook was offered %d station-bound messages, want 0", hook.offers)
	}
	if len(p.failures) != 1 || p.failures[0].MH != 2 {
		t.Errorf("failures = %+v, want one, for mh2", p.failures)
	}
	if got := sys.Stats().WaiterDrops; got != 1 {
		t.Errorf("WaiterDrops = %d, want 1", got)
	}
	if len(p.mssGot) != 1 || p.mssGot[0].At != 1 || p.mssGot[0].Msg != "parked" {
		t.Errorf("station deliveries = %+v, want \"parked\" at mss1 after the join", p.mssGot)
	}
	if got := sys.Meter().Count(cost.CatControl, cost.KindFixed); got != 1 {
		t.Errorf("control fixed = %d, want 1 (the failure notification only)", got)
	}
}

func TestMoveSemantics(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 3, 3)
	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	// While in transit the MH is in neither local list.
	if _, status := sys.Where(0); status != StatusInTransit {
		t.Fatalf("status = %v, want in-transit", status)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.leaves) != 1 || p.leaves[0] != (probeLeave{MSS: 0, MH: 0}) {
		t.Errorf("leaves = %+v", p.leaves)
	}
	if len(p.joins) != 1 || p.joins[0] != (probeJoin{MSS: 2, MH: 0, Prev: 0}) {
		t.Errorf("joins = %+v", p.joins)
	}
	if ctx.IsLocal(0, 0) || !ctx.IsLocal(2, 0) {
		t.Error("local lists inconsistent after move")
	}
	if got := sys.Stats().Moves; got != 1 {
		t.Errorf("moves = %d, want 1", got)
	}
	// leave + join = 2 wireless control messages.
	if got := sys.Meter().Count(cost.CatControl, cost.KindWireless); got != 2 {
		t.Errorf("control wireless = %d, want 2", got)
	}
}

func TestMoveToSameCellIsNoOp(t *testing.T) {
	sys, p, _ := newProbeSystem(t, 3, 3)
	if err := sys.Move(0, 0); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.leaves)+len(p.joins) != 0 {
		t.Error("no-op move produced mobility events")
	}
	if sys.Meter().TotalCost(sys.Config().Params) != 0 {
		t.Error("no-op move charged messages")
	}
}

func TestMoveStateErrors(t *testing.T) {
	sys, _, _ := newProbeSystem(t, 3, 3)
	if err := sys.Move(0, 1); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Move(0, 2); err == nil {
		t.Error("Move while in transit succeeded")
	}
	if err := sys.Disconnect(0); err == nil {
		t.Error("Disconnect while in transit succeeded")
	}
	if err := sys.Reconnect(0, 1, true); err == nil {
		t.Error("Reconnect while in transit succeeded")
	}
}

func TestDisconnectReconnectSemantics(t *testing.T) {
	sys, p, ctx := newProbeSystem(t, 4, 4)
	if err := sys.Disconnect(1); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.discs) != 1 || p.discs[0] != (probeLeave{MSS: 1, MH: 1}) {
		t.Errorf("disconnects = %+v", p.discs)
	}
	if !ctx.IsDisconnectedHere(1, 1) {
		t.Error("disconnected flag not set at mss1")
	}
	if ctx.IsLocal(1, 1) {
		t.Error("disconnected MH still in local list")
	}

	if err := sys.Reconnect(1, 3, true); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ctx.IsDisconnectedHere(1, 1) {
		t.Error("disconnected flag not cleared by handoff")
	}
	if !ctx.IsLocal(3, 1) {
		t.Error("reconnected MH not local to new MSS")
	}
	if len(p.joins) != 1 || !p.joins[0].WasDisc || p.joins[0].Prev != 1 {
		t.Errorf("joins = %+v, want reconnect join with prev=mss1", p.joins)
	}
	if got := sys.Stats().Reconnects; got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
}

func TestReconnectWithoutPrevBroadcasts(t *testing.T) {
	withPrev := func(knows bool) int64 {
		sys, _, _ := newProbeSystem(t, 6, 2)
		if err := sys.Disconnect(0); err != nil {
			t.Fatalf("Disconnect: %v", err)
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		before := sys.Meter().Snapshot()
		if err := sys.Reconnect(0, 3, knows); err != nil {
			t.Fatalf("Reconnect: %v", err)
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sys.Meter().Diff(before).Count(cost.CatControl, cost.KindFixed)
	}
	// With prev: handoff request + reply = 2 fixed. Without: +(M-1) queries
	// and one reply = 2 + 6 = 8.
	if got := withPrev(true); got != 2 {
		t.Errorf("fixed control with prev = %d, want 2", got)
	}
	if got := withPrev(false); got != 8 {
		t.Errorf("fixed control without prev = %d, want 8", got)
	}
}

func TestPrefixSemanticsMessageAfterLeaveChases(t *testing.T) {
	// Deliver a wireless message whose transmission completes after the MH
	// left the cell: the prefix property means it is not received there,
	// and the network re-routes it to the new cell.
	cfg := DefaultConfig(3, 3)
	cfg.Wireless = Delay{Min: 50, Max: 50} // slow wireless
	cfg.Travel = FixedDelay(10)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p := &probe{}
	ctx := sys.Register(p)

	if err := ctx.SendToLocalMH(0, 0, "slow", cost.CatAlgorithm); err != nil {
		t.Fatalf("SendToLocalMH: %v", err)
	}
	// The MH leaves before the 50-tick transmission completes.
	sys.Schedule(1, func() {
		if err := sys.Move(0, 2); err != nil {
			t.Errorf("Move: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 {
		t.Fatalf("deliveries = %d, want 1 (re-routed)", len(p.mhGot))
	}
	if sys.Stats().StaleReroutes == 0 {
		t.Error("expected a stale re-route")
	}
	if at, _ := sys.Where(0); at != 2 {
		t.Errorf("mh0 at mss%d, want 2", int(at))
	}
}

func TestDozeInterruptionCounting(t *testing.T) {
	sys, _, ctx := newProbeSystem(t, 3, 3)
	sys.SetDoze(1, true)
	if !sys.IsDozing(1) {
		t.Fatal("IsDozing = false after SetDoze")
	}
	ctx.SendToMH(0, 1, "wake", cost.CatAlgorithm)
	ctx.SendToMH(0, 2, "other", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := sys.Stats()
	if stats.DozeInterruptions != 1 || stats.DozeInterruptionsByMH[1] != 1 {
		t.Errorf("interruptions = %d (mh1: %d), want 1/1",
			stats.DozeInterruptions, stats.DozeInterruptionsByMH[1])
	}
}

func TestBroadcastSearchModeCharges(t *testing.T) {
	cfg := DefaultConfig(5, 10)
	cfg.SearchMode = SearchBroadcast
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p := &probe{}
	ctx := sys.Register(p)
	// Remote delivery: mh6 is at mss1, send from mss0.
	ctx.SendToMH(0, 6, "x", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.mhGot) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(p.mhGot))
	}
	// Broadcast search: (M-1) queries + reply + forward = 6 fixed; no
	// Csearch charges anywhere.
	if got := sys.Meter().Count(cost.CatAlgorithm, cost.KindFixed); got != 6 {
		t.Errorf("fixed = %d, want 6", got)
	}
	if got := sys.Meter().KindTotal(cost.KindSearch); got != 0 {
		t.Errorf("search charges = %d, want 0 in broadcast mode", got)
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig(4, 12)
		cfg.Seed = 1234
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		p := &probe{}
		ctx := sys.Register(p)
		for i := 0; i < 12; i++ {
			mh := MHID(i)
			sys.Schedule(sim.Time(i), func() {
				ctx.SendToMH(0, mh, int(mh), cost.CatAlgorithm)
			})
			if i%3 == 0 {
				to := MSSID((i + 1) % 4)
				sys.Schedule(sim.Time(i*2), func() {
					_ = sys.Move(mh, to)
				})
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sys.Meter().TotalCost(cfg.Params)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs diverged: %v vs %v", a, b)
	}
}

func TestRegisterMultipleAlgorithmsIsolated(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(3, 3))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	a := &probe{name: "a"}
	b := &probe{name: "b"}
	ctxA := sys.Register(a)
	ctxB := sys.Register(b)
	ctxA.SendFixed(0, 1, "for-a", cost.CatAlgorithm)
	ctxB.SendFixed(0, 1, "for-b", cost.CatAlgorithm)
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(a.mssGot) != 1 || a.mssGot[0].Msg != "for-a" {
		t.Errorf("algorithm a got %+v", a.mssGot)
	}
	if len(b.mssGot) != 1 || b.mssGot[0].Msg != "for-b" {
		t.Errorf("algorithm b got %+v", b.mssGot)
	}
}

func TestInvalidIDsPanic(t *testing.T) {
	sys, _, ctx := newProbeSystem(t, 2, 2)
	for name, fn := range map[string]func(){
		"bad mss":        func() { ctx.SendFixed(0, 5, "x", cost.CatAlgorithm) },
		"bad mh":         func() { ctx.SendToMH(0, 9, "x", cost.CatAlgorithm) },
		"bad where":      func() { sys.Where(9) },
		"bad doze":       func() { sys.SetDoze(9, true) },
		"bad move to":    func() { _ = sys.Move(0, 9) },
		"bad move mh":    func() { _ = sys.Move(9, 0) },
		"register nil":   func() { sys.Register(nil) },
		"bad local list": func() { ctx.LocalMHs(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

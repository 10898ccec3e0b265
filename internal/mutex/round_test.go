package mutex_test

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/lamport"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/sim"
)

// requester is what the tests drive: L2 or one R2 variant.
type requester interface {
	Request(mh core.MHID) error
	Grants() int64
}

// cs is the critical-section behaviour a test hands each algorithm.
type cs struct {
	hold            sim.Time
	onEnter, onExit func(core.MHID)
}

// lender is one algorithm that lends the critical section through the
// round. build registers it on sys; the returned start, when non-nil, is
// to run once the scenario is scheduled (R2's token injection).
type lender struct {
	name  string
	build func(t *testing.T, sys *core.System, c cs) (requester, func())
}

// lenders lists L2 and the three R2 variants; each R2 parks its token
// after traversals.
func lenders(traversals int64) []lender {
	ls := []lender{{"L2", func(_ *testing.T, sys *core.System, c cs) (requester, func()) {
		return lamport.NewL2(sys, lamport.Options{Hold: c.hold, OnEnter: c.onEnter, OnExit: c.onExit}), nil
	}}}
	for _, v := range []ring.Variant{ring.VariantPlain, ring.VariantCounter, ring.VariantList} {
		v := v
		ls = append(ls, lender{v.String(), func(t *testing.T, sys *core.System, c cs) (requester, func()) {
			r2, err := ring.NewR2(sys, v, ring.Options{Hold: c.hold, OnEnter: c.onEnter, OnExit: c.onExit}, traversals, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r2, func() {
				if err := r2.Start(); err != nil {
					t.Error(err)
				}
			}
		}})
	}
	return ls
}

// legRun is one run of a leg scenario: what entered when, and the
// algorithm traffic it was charged.
type legRun struct {
	sys     *core.System
	alg     requester
	entered map[core.MHID]sim.Time
}

// runLeg builds l on m stations, has mh0 ask at 0 and mh1 at 20 (so the
// critical section must come back from mh0 before mh1 enters), and runs
// to quiescence. script runs first, with mh0's cell; what it returns, when
// non-nil, runs when mh0 enters.
func runLeg(t *testing.T, l lender, m int, hold sim.Time, script func(sys *core.System, home core.MSSID) func()) legRun {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig(m, 2))
	if err != nil {
		t.Fatal(err)
	}
	run := legRun{sys: sys, entered: map[core.MHID]sim.Time{}}
	home, _ := sys.Where(0)
	onEnter0 := script(sys, home)
	var start func()
	run.alg, start = l.build(t, sys, cs{hold: hold, onEnter: func(mh core.MHID) {
		run.entered[mh] = sys.Now()
		if mh == 0 && onEnter0 != nil {
			onEnter0()
		}
	}})
	for i, at := range []sim.Time{0, 20} {
		mh := core.MHID(i)
		sys.Schedule(at, func() {
			if err := run.alg.Request(mh); err != nil {
				t.Errorf("%s: Request(mh%d): %v", l.name, mh, err)
			}
		})
	}
	if start != nil {
		start()
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s: Run: %v", l.name, err)
	}
	return run
}

// count is how many algorithm messages of kind the run was charged.
func (r legRun) count(kind cost.Kind) int64 { return r.sys.Meter().Count(cost.CatAlgorithm, kind) }

// TestRoundChargesItsPrice: on one station, where the station tier has
// no peers, one request adds exactly cost.AnalyticLendingRound to a run
// without it — three wireless messages, one search, one fixed relay.
func TestRoundChargesItsPrice(t *testing.T) {
	for _, l := range lenders(2) {
		price := func(asks bool) *cost.Meter {
			sys, err := core.NewSystem(core.DefaultConfig(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			alg, start := l.build(t, sys, cs{hold: 10})
			if asks {
				if err := alg.Request(0); err != nil {
					t.Fatal(err)
				}
			}
			if start != nil {
				start()
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := alg.Grants(), map[bool]int64{true: 1}[asks]; got != want {
				t.Errorf("%s: grants = %d, want %d", l.name, got, want)
			}
			return sys.Meter()
		}
		round := price(true).Diff(price(false))
		p := cost.DefaultParams()
		if got, want := round.CategoryCost(cost.CatAlgorithm, p), cost.AnalyticLendingRound(p); got != want {
			t.Errorf("%s: one round costs %v, want %v\n%s", l.name, got, want, round.Report(p))
		}
		for kind, want := range map[cost.Kind]int64{cost.KindWireless: 3, cost.KindSearch: 1, cost.KindFixed: 1} {
			if got := round.Count(cost.CatAlgorithm, kind); got != want {
				t.Errorf("%s: one round sends %d %v messages, want %d", l.name, got, kind, want)
			}
		}
	}
}

// TestRoundReturnFromNewCell: mh0 moves during its hold, so its return
// enters from the new cell and is relayed to the granting station, which
// then admits mh1.
func TestRoundReturnFromNewCell(t *testing.T) {
	for _, l := range lenders(4) {
		var exitCell core.MSSID = -1
		var moved core.MSSID
		run := runLeg(t, l, 3, 100, func(sys *core.System, home core.MSSID) func() {
			moved = (home + 1) % 3
			return func() {
				sys.Schedule(5, func() {
					if err := sys.Move(0, moved); err != nil {
						t.Errorf("%s: Move: %v", l.name, err)
					}
				})
				sys.Schedule(99, func() { exitCell, _ = sys.Where(0) })
			}
		})
		if exitCell != moved {
			t.Errorf("%s: mh0 ended its hold in cell %d, want the new cell %d", l.name, exitCell, moved)
		}
		if _, ok := run.entered[1]; !ok || run.alg.Grants() != 2 {
			t.Errorf("%s: grants = %d (entered %v), want mh0 then mh1", l.name, run.alg.Grants(), run.entered)
		}
		if got := run.count(cost.KindWireless); got != 6 {
			t.Errorf("%s: %d wireless algorithm messages, want 6 (two rounds)", l.name, got)
		}
	}
}

// TestRoundOwedReturnSentOnce: mh0 disconnects during its hold and
// reconnects elsewhere, not knowing its previous cell, after the hold has
// ended. It owes the return and sends it, once, from the new cell; only
// then does mh1 enter.
func TestRoundOwedReturnSentOnce(t *testing.T) {
	for _, l := range lenders(4) {
		var back sim.Time
		run := runLeg(t, l, 3, 40, func(sys *core.System, home core.MSSID) func() {
			return func() {
				sys.Schedule(5, func() {
					if err := sys.Disconnect(0); err != nil {
						t.Errorf("%s: Disconnect: %v", l.name, err)
					}
				})
				sys.Schedule(100, func() {
					back = sys.Now()
					if err := sys.Reconnect(0, (home+2)%3, false); err != nil {
						t.Errorf("%s: Reconnect: %v", l.name, err)
					}
				})
			}
		})
		if at, ok := run.entered[1]; !ok || at <= back {
			t.Errorf("%s: mh1 entered at %d (ok=%v), want after mh0 reconnected at %d", l.name, at, ok, back)
		}
		if got := run.count(cost.KindWireless); got != 6 {
			t.Errorf("%s: %d wireless algorithm messages, want 6 (the owed return sent once)", l.name, got)
		}
		if got := run.count(cost.KindSearch); got != 2 {
			t.Errorf("%s: %d searches, want 2 (one grant each)", l.name, got)
		}
	}
}

// TestRoundFailedGrant: mh0 disconnects right after asking, so its grant
// finds it gone and comes back to the granting station as a failure; the
// station's failure step lets mh1 in.
func TestRoundFailedGrant(t *testing.T) {
	for _, l := range lenders(4) {
		run := runLeg(t, l, 3, 40, func(sys *core.System, _ core.MSSID) func() {
			sys.Schedule(1, func() {
				if err := sys.Disconnect(0); err != nil {
					t.Errorf("%s: Disconnect: %v", l.name, err)
				}
			})
			return nil
		})
		if _, ok := run.entered[0]; ok || run.alg.Grants() != 1 {
			t.Errorf("%s: grants = %d (entered %v), want mh1 only", l.name, run.alg.Grants(), run.entered)
		}
		if l2, ok := run.alg.(*lamport.L2); ok && l2.FailedGrants() != 1 {
			t.Errorf("L2: failed grants = %d, want 1", l2.FailedGrants())
		}
		if got := run.sys.Stats().FailedDeliveries; got != 1 {
			t.Errorf("%s: failed deliveries = %d, want 1", l.name, got)
		}
	}
}

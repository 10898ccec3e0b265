package mutex_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/round.golden.txt")

const (
	goldenM    = 4
	goldenN    = 8
	goldenHold = 30
	// goldenAsks bounds how often each MH asks, so every run quiesces.
	goldenAsks = 3
)

// runGolden runs l under moves and churn with every event kind traced,
// and returns the JSONL trace, the legs it took and its grants. l's start
// runs after the first requests are issued.
func runGolden(t *testing.T, l lender) ([]byte, legs, int64) {
	t.Helper()
	cfg := core.DefaultConfig(goldenM, goldenN)
	cfg.Seed = 7
	cfg.Obs = obs.NewTracer(0)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var alg requester
	asks := make([]int, goldenN)
	entries := make([]int, goldenN)
	ask := func(mh core.MHID) {
		if asks[mh] >= goldenAsks {
			return
		}
		if alg.Request(mh) == nil {
			asks[mh]++
		}
	}
	where := func(mh core.MHID) core.MSSID {
		at, _ := sys.Where(mh)
		return at
	}
	c := cs{
		hold: goldenHold,
		onEnter: func(mh core.MHID) {
			entries[mh]++
			if entries[mh] != 1 {
				return
			}
			switch mh {
			case 0:
				// Moves during its first hold: the return leaves from the
				// new cell and is relayed.
				to := (where(mh) + 1) % goldenM
				sys.Schedule(5, func() { _ = sys.Move(mh, to) })
			case 1:
				// Disconnects during its first hold and reconnects
				// elsewhere, not knowing its previous cell, after the hold
				// has ended: the return is owed across the disconnection.
				to := (where(mh) + 2) % goldenM
				sys.Schedule(5, func() { _ = sys.Disconnect(mh) })
				sys.Schedule(goldenHold+40, func() { _ = sys.Reconnect(mh, to, false) })
			}
		},
		onExit: func(mh core.MHID) {
			sys.Schedule(20, func() { ask(mh) })
		},
	}
	var start func()
	alg, start = l.build(t, sys, c)

	for i := 0; i < goldenN; i++ {
		mh := core.MHID(i)
		sys.Schedule(sim.Time(3*i), func() { ask(mh) })
	}
	// mh2 disconnects just after asking, so its grant finds it gone; it
	// comes back much later.
	sys.Schedule(7, func() { _ = sys.Disconnect(2) })
	sys.Schedule(900, func() { _ = sys.Reconnect(2, 3, true) })
	// Background moves among the MHs the legs above leave alone, and one
	// more disconnect/reconnect.
	for k := 0; k < 60; k++ {
		mh := core.MHID(3 + k%(goldenN-3))
		sys.Schedule(sim.Time(7+11*k), func() {
			if _, st := sys.Where(mh); st == core.StatusConnected {
				_ = sys.Move(mh, (where(mh)+core.MSSID(1+k%3))%goldenM)
			}
		})
	}
	sys.Schedule(120, func() { _ = sys.Disconnect(6) })
	sys.Schedule(260, func() { _ = sys.Reconnect(6, 1, true) })
	if start != nil {
		start()
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := cfg.Obs.Snapshot()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), takenLegs(tr.Events), alg.Grants()
}

// legs counts the lending round's outcomes a trace shows.
type legs struct {
	failed int // grants that found their MH disconnected
	moved  int // holds after which the return left another cell
	owed   int // holds that ended with the MH disconnected
}

// takenLegs reads the round's legs off a trace. A grant is the only
// message L2 and R2 route to a MH, so a delivery to a MH is its grant and
// a failure a failed grant. A hold that ends between cells sends its
// return from the cell the MH joins next.
func takenLegs(events []obs.Event) legs {
	var l legs
	type holdState struct {
		in, transit, moved, gone bool
		cell                     int32
	}
	cell := map[int32]int32{}
	hold := map[int32]*holdState{}
	for _, ev := range events {
		h := hold[ev.A]
		switch ev.Kind {
		case obs.EvFailure:
			l.failed++
		case obs.EvDeliver:
			cell[ev.A] = ev.B
		case obs.EvCSEnter:
			hold[ev.A] = &holdState{in: true, cell: cell[ev.A]}
		case obs.EvLeave:
			if h != nil && h.in {
				h.transit = true
			}
		case obs.EvJoin:
			switch {
			case h == nil || !h.transit:
			case h.in:
				h.transit, h.moved = false, h.moved || ev.B != h.cell
			default: // the hold ended in transit: the return leaves here
				h.transit = false
				if ev.B != h.cell {
					l.moved++
				}
			}
		case obs.EvDisconnect:
			if h != nil && h.in {
				h.gone = true
			}
		case obs.EvCSExit:
			if h == nil || !h.in {
				continue
			}
			h.in = false
			switch {
			case h.gone:
				l.owed++
			case h.transit:
			case h.moved:
				l.moved++
			}
		}
	}
	return l
}

// TestRoundGolden pins the SHA-256 of the JSONL event stream of L2 and of
// each R2 variant under moves and churn, and checks that every run takes
// each leg of the lending round: a grant that finds its MH disconnected, a
// return sent from another cell than the one the grant reached, and a
// return owed across a disconnection. Regenerate with
// `go test ./internal/mutex -run TestRoundGolden -update` and say why.
func TestRoundGolden(t *testing.T) {
	var sums strings.Builder
	for _, r := range lenders(8) {
		data, l, grants := runGolden(t, r)
		if l.failed == 0 || l.moved == 0 || l.owed == 0 {
			t.Errorf("%s: legs taken %+v, want every leg at least once", r.name, l)
		}
		fmt.Fprintf(&sums, "%x  %s grants=%d failed=%d moved=%d owed=%d\n",
			sha256.Sum256(data), r.name, grants, l.failed, l.moved, l.owed)
	}
	const golden = "testdata/round.golden.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(sums.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sums.String(); got != string(want) {
		t.Errorf("round traces differ from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

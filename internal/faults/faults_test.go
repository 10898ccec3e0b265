package faults

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// stubClock plays the engine's PlanClock for the decision tests: a manual
// clock. They arm no plan, so it schedules nothing.
type stubClock struct{ now sim.Time }

func (c *stubClock) Now() sim.Time                           { return c.now }
func (c *stubClock) AfterCrash(sim.Time, engine.MSSID, bool) {}

// mustNew builds an injector for a 2×4 network, bound to a stub clock as
// engine.New would bind the engine.
func mustNew(t *testing.T, plan Plan) (*Injector, *stubClock) {
	t.Helper()
	inj, err := New(plan, 2, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clock := &stubClock{}
	inj.Bind(clock)
	return inj, clock
}

// fate is one transmission's decision, with the receiver's verdict on each
// copy that lands.
type fate struct {
	copies, landed int
	late           bool
	extra          sim.Time
}

// xmit asks the injector what the engine asks it about one transmission on
// ch: its fate at the sender, then, for each copy, Discard as it lands.
func xmit(inj *Injector, ch int) fate {
	idx, copies, late, extra := inj.Transmit(ch)
	f := fate{copies: copies, late: late, extra: extra}
	for range copies {
		if !inj.Discard(ch, idx) {
			f.landed++
		}
	}
	return f
}

// layout2x4 mirrors the channel numbering for M=2, N=4.
func downCh(mss, mh int) int { return 2*2 + mss*4 + mh }
func upCh(mh int) int        { return 2*2 + 2*4 + mh }

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Down: LinkFaults{Drop: -0.1}},
		{Up: LinkFaults{Duplicate: 1.5}},
		{Flaps: []Flap{{MSS: 9}}},
		{Flaps: []Flap{{MSS: 0, From: 10, Until: 5}}},
		{Crashes: []Crash{{MSS: 5, At: 1}}},
		{Crashes: []Crash{{MSS: 0, At: 10, RestartAt: 3}}},
	}
	for i, p := range bad {
		if err := p.Validate(2, 4); err == nil {
			t.Errorf("plan %d validated despite being invalid: %+v", i, p)
		}
	}
	if err := (Plan{Down: LinkFaults{Drop: 0.3}}).Validate(2, 4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan is not Empty")
	}
	if (Plan{Up: LinkFaults{Reorder: 0.1}}).Empty() {
		t.Error("reordering plan claims Empty")
	}
}

func TestDropGatesWirelessOnly(t *testing.T) {
	inj, _ := mustNew(t, Plan{Down: LinkFaults{Drop: 1}, Up: LinkFaults{Drop: 1}})
	for _, tc := range []struct {
		ch, want int
	}{{downCh(0, 0), 0}, {upCh(1), 0}, {0, 1}} { // wired 0→0 stays lossless
		if got := xmit(inj, tc.ch); got.copies != tc.want || got.landed != tc.want {
			t.Errorf("channel %d: %+v, want %d copies landing", tc.ch, got, tc.want)
		}
	}
	if got := inj.Stats().WirelessDrops; got != 2 {
		t.Errorf("WirelessDrops = %d, want 2", got)
	}
}

func TestDuplicateInjectsTwoCopies(t *testing.T) {
	inj, _ := mustNew(t, Plan{Down: LinkFaults{Duplicate: 1}})
	if got := xmit(inj, downCh(0, 0)); got.copies != 2 || got.landed != 2 || got.late {
		t.Errorf("fate %+v, want two in-order copies, both landing", got)
	}
	if got := inj.Stats().WirelessDuplicates; got != 1 {
		t.Errorf("WirelessDuplicates = %d, want 1", got)
	}
}

func TestReorderBypassesFIFO(t *testing.T) {
	inj, _ := mustNew(t, Plan{Up: LinkFaults{Reorder: 1, ReorderDelay: engine.Delay{Min: 2, Max: 2}}})
	if got, want := xmit(inj, upCh(0)), (fate{copies: 1, landed: 1, late: true, extra: 2}); got != want {
		t.Errorf("fate %+v, want %+v: the one copy late by the drawn extra delay", got, want)
	}
	if got := inj.Stats().WirelessReorders; got != 1 {
		t.Errorf("WirelessReorders = %d, want 1", got)
	}
}

func TestCrashDiscardsWiredBothDirections(t *testing.T) {
	inj, clock := mustNew(t, Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}}})
	clock.now = 50 // inside the crash window

	if got := xmit(inj, 1*2+0); got.copies != 0 { // wired 1→0: source crashed
		t.Errorf("wired 1→0 from a crashed source: %+v, want destroyed at the sender", got)
	}
	if got := xmit(inj, 0*2+1); got.copies != 1 || got.landed != 0 { // wired 0→1: receiver crashed
		t.Errorf("wired 0→1 to a crashed receiver: %+v, want sent and discarded on landing", got)
	}
	if got := xmit(inj, downCh(1, 0)); got.copies != 0 { // crashed station's radio is dark
		t.Errorf("downlink of a crashed station: %+v, want dark", got)
	}
	st := inj.Stats()
	if st.CrashDiscards != 2 {
		t.Errorf("CrashDiscards = %d, want 2 (tx + rx)", st.CrashDiscards)
	}
	if st.WirelessDrops != 1 {
		t.Errorf("WirelessDrops = %d, want 1 (dark downlink)", st.WirelessDrops)
	}

	clock.now = 100 // restarted
	for _, ch := range []int{1*2 + 0, 0*2 + 1, downCh(1, 0)} {
		if got := xmit(inj, ch); got.landed != 1 {
			t.Errorf("channel %d after restart: %+v, want it to land", ch, got)
		}
	}
}

func TestFlapDarkensCellAndListedUplinks(t *testing.T) {
	inj, clock := mustNew(t, Plan{Flaps: []Flap{{MSS: 0, MHs: []engine.MHID{2}, From: 10, Until: 20}}})

	check := func(now sim.Time, wantLanded int, step string) {
		t.Helper()
		clock.now = now
		landed := 0
		for _, ch := range []int{
			downCh(0, 0), // flapped cell's downlink
			downCh(1, 0), // other cell unaffected
			upCh(2),      // listed uplink
			upCh(3),      // unlisted uplink unaffected
		} {
			landed += xmit(inj, ch).landed
		}
		if landed != wantLanded {
			t.Errorf("%s: %d landed, want %d", step, landed, wantLanded)
		}
	}
	check(5, 4, "before flap")
	check(15, 2, "during flap")
	check(25, 4, "after flap")
}

func TestDownSinceOracle(t *testing.T) {
	inj, clock := mustNew(t, Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}}})
	if _, down := inj.DownSince(1); down {
		t.Error("mss1 reported down before its crash")
	}
	clock.now = 50
	since, down := inj.DownSince(1)
	if !down || since != 10 {
		t.Errorf("DownSince(1) = (%d, %v) at t=50, want (10, true)", since, down)
	}
	clock.now = 100
	if _, down := inj.DownSince(1); down {
		t.Error("mss1 reported down after restart")
	}
	if _, down := inj.DownSince(0); down {
		t.Error("mss0 reported down despite never crashing")
	}
}

// stubSubstrate steps every record it is handed at once, on a manual
// clock that moves on by step after each reading, and logs each AfterRec
// delay: the Arm tests run the real engine on it, so a planned instant
// travels the whole way from Arm to an observer.
type stubSubstrate struct {
	now    sim.Time
	step   sim.Time
	sink   engine.RecSink
	afters []string
}

func (s *stubSubstrate) Now() sim.Time                   { s.now += s.step; return s.now - s.step }
func (s *stubSubstrate) RNG() *sim.RNG                   { return sim.NewRNG(99) }
func (s *stubSubstrate) BindRecSink(sink engine.RecSink) { s.sink = sink }
func (s *stubSubstrate) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	s.sink.StepRec(rec)
}
func (s *stubSubstrate) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	s.afters = append(s.afters, fmt.Sprintf("@%d", d))
	s.sink.StepRec(rec)
}

// newArmed builds the real engine for a 2×4 network on stub with an
// injector under plan as its Weather.
func newArmed(t *testing.T, plan Plan, stub *stubSubstrate) (*Injector, *engine.Engine) {
	t.Helper()
	inj, err := New(plan, 2, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng, err := engine.New(engine.Config{
		M: 2, N: 4, Params: cost.DefaultParams(),
		Wired: engine.FixedDelay(1), Wireless: engine.FixedDelay(1), Travel: engine.FixedDelay(1),
		SearchMode: engine.SearchAbstract,
	}, stub, inj)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return inj, eng
}

// crashLog is an algorithm that implements only engine.CrashObserver and
// engine.RestartObserver: it logs each notification with the virtual time it arrived at.
type crashLog struct {
	now    func() sim.Time
	events []string
}

func (c *crashLog) Name() string { return "crash-log" }
func (c *crashLog) NoteCrash(mss engine.MSSID) {
	c.events = append(c.events, fmt.Sprintf("crash mss%d @%d", int(mss), c.now()))
}
func (c *crashLog) NoteRestart(mss engine.MSSID) {
	c.events = append(c.events, fmt.Sprintf("restart mss%d @%d", int(mss), c.now()))
}

// TestArmFiresCrashAndRestartHooks: Arm schedules one record per planned
// crash and restart at its instant, and stepping it reaches a registered
// CrashObserver with no further wiring. The stub steps each AfterRec
// record at once; its log says when each one was due.
func TestArmFiresCrashAndRestartHooks(t *testing.T) {
	stub := &stubSubstrate{}
	inj, eng := newArmed(t, Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}, {MSS: 0, At: 40}}}, stub)
	log := &crashLog{now: func() sim.Time { return stub.now }}
	eng.Register(log)
	stub.now = 5
	inj.Arm()
	if want := []string{"@5", "@35", "@95"}; !reflect.DeepEqual(stub.afters, want) {
		t.Errorf("Arm scheduled %v, want %v (in time order; no restart for RestartAt 0)", stub.afters, want)
	}
	if want := []string{"crash mss1 @5", "crash mss0 @5", "restart mss1 @5"}; !reflect.DeepEqual(log.events, want) {
		t.Errorf("observer saw %v, want %v", log.events, want)
	}
	if live := eng.LiveRecs(); live != 0 {
		t.Errorf("LiveRecs = %d after the crash records stepped, want 0", live)
	}
}

// TestArmLateFiresInPlanTimeOrder: a live substrate arms after Start, so
// every planned instant may already be past. Each is clamped to now, and
// the observers must still hear them in the plan's time order, not its
// list order.
func TestArmLateFiresInPlanTimeOrder(t *testing.T) {
	stub := &stubSubstrate{}
	inj, eng := newArmed(t, Plan{Crashes: []Crash{{MSS: 1, At: 40, RestartAt: 120}, {MSS: 0, At: 60}}}, stub)
	log := &crashLog{now: func() sim.Time { return stub.now }}
	eng.Register(log)
	stub.now = 500
	inj.Arm()
	if want := []string{"crash mss1 @500", "crash mss0 @500", "restart mss1 @500"}; !reflect.DeepEqual(log.events, want) {
		t.Errorf("observer saw %v, want %v", log.events, want)
	}
}

// TestArmReadsTheClockOnce: a live substrate stamps Arm's delays from its
// drain's instant, so Arm must take them all from one clock reading. A
// stub whose clock jumps 100 ticks at every reading stands in for a stall
// inside Arm: the delays must still ascend with the plan's instants.
func TestArmReadsTheClockOnce(t *testing.T) {
	stub := &stubSubstrate{step: 100}
	inj, _ := newArmed(t, Plan{Crashes: []Crash{{MSS: 1, At: 40, RestartAt: 120}}}, stub)
	inj.Arm()
	if want := []string{"@40", "@120"}; !reflect.DeepEqual(stub.afters, want) {
		t.Errorf("Arm scheduled %v, want %v", stub.afters, want)
	}
}

// driveTraffic pushes a fixed per-channel traffic pattern through an
// injector and returns (fault events, stats) — the determinism witness.
func driveTraffic(t *testing.T, plan Plan, n int) ([]obs.Event, engine.FaultStats) {
	t.Helper()
	inj, _ := mustNew(t, plan)
	tr := obs.NewTracer(0)
	inj.SetTracer(tr)
	for i := 0; i < n; i++ {
		xmit(inj, downCh(i%2, i%4))
		xmit(inj, upCh(i%4))
		xmit(inj, (i%2)*2+(i+1)%2)
	}
	return tr.Events(), inj.Stats()
}

func TestSamePlanSameSeedSameTrace(t *testing.T) {
	plan := Plan{
		Seed: 42,
		Down: LinkFaults{Drop: 0.3, Duplicate: 0.1, Reorder: 0.05},
		Up:   LinkFaults{Drop: 0.2, Duplicate: 0.05},
	}
	e1, s1 := driveTraffic(t, plan, 200)
	e2, s2 := driveTraffic(t, plan, 200)
	if len(e1) == 0 {
		t.Fatal("a lossy plan emitted no fault events")
	}
	if !slices.Equal(e1, e2) {
		t.Fatal("same plan + seed produced different fault events")
	}
	if s1 != s2 {
		t.Fatalf("same plan + seed produced different stats: %+v vs %+v", s1, s2)
	}
	plan.Seed = 43
	e3, _ := driveTraffic(t, plan, 200)
	if slices.Equal(e1, e3) {
		t.Fatal("different seeds produced identical fault events — the seed is inert")
	}
}

// TestFaultEventOperands pins the operands of the four fault events (the
// obs.EventKind docs): A = channel, B = the channel's transmission index,
// C = 1 for a dark-link drop or a crash discard at the receiver, else 0.
func TestFaultEventOperands(t *testing.T) {
	const wired10, wired01 = 1*2 + 0, 0*2 + 1
	for _, tc := range []struct {
		name string
		plan Plan
		ch   int
		want []obs.Event
	}{
		{"random drop", Plan{Up: LinkFaults{Drop: 1}}, upCh(1), []obs.Event{
			{Kind: obs.EvDrop, A: int32(upCh(1)), B: 0}, {Kind: obs.EvDrop, A: int32(upCh(1)), B: 1}}},
		{"dark drop", Plan{Flaps: []Flap{{MSS: 0, Until: 10}}}, downCh(0, 2), []obs.Event{
			{Kind: obs.EvDrop, A: int32(downCh(0, 2)), B: 0, C: 1}, {Kind: obs.EvDrop, A: int32(downCh(0, 2)), B: 1, C: 1}}},
		{"duplicate", Plan{Down: LinkFaults{Duplicate: 1}}, downCh(1, 3), []obs.Event{
			{Kind: obs.EvDuplicate, A: int32(downCh(1, 3)), B: 0}, {Kind: obs.EvDuplicate, A: int32(downCh(1, 3)), B: 1}}},
		{"reorder", Plan{Down: LinkFaults{Reorder: 1}}, downCh(1, 0), []obs.Event{
			{Kind: obs.EvReorder, A: int32(downCh(1, 0)), B: 0}, {Kind: obs.EvReorder, A: int32(downCh(1, 0)), B: 1}}},
		{"crash at sender", Plan{Crashes: []Crash{{MSS: 1, RestartAt: 100}}}, wired10, []obs.Event{
			{Kind: obs.EvCrashDiscard, A: wired10, B: 0}, {Kind: obs.EvCrashDiscard, A: wired10, B: 1}}},
		{"crash at receiver", Plan{Crashes: []Crash{{MSS: 1, RestartAt: 100}}}, wired01, []obs.Event{
			{Kind: obs.EvCrashDiscard, A: wired01, B: 0, C: 1}, {Kind: obs.EvCrashDiscard, A: wired01, B: 1, C: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, _ := mustNew(t, tc.plan)
			tr := obs.NewTracer(0)
			inj.SetTracer(tr)
			xmit(inj, tc.ch)
			xmit(inj, tc.ch)
			if got := tr.Events(); !slices.Equal(got, tc.want) {
				t.Errorf("events = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestNewAllocatesLinear: an injector costs O(M+N) to build, whatever the
// channel count. At sim-route's size (M=10^3, N=10^5: 1.0e8 channel ids) a
// decision stream per id would be 4 GB before the first transmission.
func TestNewAllocatesLinear(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inj, err := New(Plan{Down: LinkFaults{Drop: 0.05}, Up: LinkFaults{Drop: 1}}, 1000, 100000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Errorf("New(M=1000, N=100000) allocated %d bytes, want < 32 MB", got)
	}
	tr := obs.NewTracer(0)
	inj.SetTracer(tr)
	inj.Bind(&stubClock{})
	last := engine.ChannelLayout{M: 1000, N: 100000}.Count() - 1
	inj.Transmit(last)
	if got, want := tr.Events(), []obs.Event{{Kind: obs.EvDrop, A: int32(last)}}; !slices.Equal(got, want) {
		t.Errorf("events of one dropped uplink transmission = %+v, want %+v", got, want)
	}
}

// FuzzPlanDeterminism fuzzes fault probabilities, seed, and traffic volume:
// for any plan, driving the same traffic twice must yield identical fault
// events and identical counters. This is the load-bearing property of the
// whole chaos suite — it is what makes failures reproducible.
func FuzzPlanDeterminism(f *testing.F) {
	f.Add(uint64(1), 0.3, 0.1, 0.05, 50)
	f.Add(uint64(0xC0FFEE), 1.0, 1.0, 1.0, 10)
	f.Add(uint64(7), 0.0, 0.0, 0.0, 5)
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, reorder float64, n int) {
		clamp := func(p float64) float64 {
			if !(p >= 0) { // also catches NaN
				return 0
			}
			if p > 1 {
				return 1
			}
			return p
		}
		if n < 0 {
			n = -n
		}
		n = n%300 + 1
		plan := Plan{
			Seed: seed,
			Down: LinkFaults{Drop: clamp(drop), Duplicate: clamp(dup), Reorder: clamp(reorder)},
			Up:   LinkFaults{Drop: clamp(dup), Duplicate: clamp(reorder), Reorder: clamp(drop)},
		}
		e1, s1 := driveTraffic(t, plan, n)
		e2, s2 := driveTraffic(t, plan, n)
		if !slices.Equal(e1, e2) {
			t.Fatalf("fault events diverged for plan %+v n=%d", plan, n)
		}
		if s1 != s2 {
			t.Fatalf("stats diverged for plan %+v n=%d: %+v vs %+v", plan, n, s1, s2)
		}
	})
}

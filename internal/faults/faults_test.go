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

// stubSubstrate records what the injector lets through: a synchronous fake
// with manual time, so each test controls the clock and observes exactly
// which copies of a transmission survive. A record handed to the transport
// is immediately surfaced back through the bound sink — which, because the
// injector interposes its gate via BindRecSink, exercises the same
// delivery-time path (crash-at-receiver) as the real substrates.
type stubSubstrate struct {
	now       sim.Time
	step      sim.Time // added to now after each reading of the clock
	rng       *sim.RNG
	sink      engine.RecSink
	transmits []string // "ch@latency" for in-order copies
	afters    []string // "@delay" for out-of-order (AfterRec) copies
}

func newStub() *stubSubstrate { return &stubSubstrate{rng: sim.NewRNG(99)} }

func (s *stubSubstrate) Now() sim.Time                   { s.now += s.step; return s.now - s.step }
func (s *stubSubstrate) BindRecSink(sink engine.RecSink) { s.sink = sink }
func (s *stubSubstrate) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	s.transmits = append(s.transmits, fmt.Sprintf("ch%d@%d", ch, latency))
	s.sink.StepRec(rec)
}
func (s *stubSubstrate) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	s.afters = append(s.afters, fmt.Sprintf("@%d", d))
	s.sink.StepRec(rec)
}
func (s *stubSubstrate) RNG() *sim.RNG { return s.rng }

// fakeSink plays the engine's end of the record protocol: it counts records
// that survive to delivery and records returned to the pool.
type fakeSink struct {
	delivered int
	freed     int
}

func (f *fakeSink) StepRec(rec *engine.DeliveryRec) { f.delivered++ }
func (f *fakeSink) FreeRec(rec *engine.DeliveryRec) { f.freed++ }
func (f *fakeSink) CloneRec(rec *engine.DeliveryRec) *engine.DeliveryRec {
	c := *rec
	return &c
}
func (f *fakeSink) CrashRec(engine.MSSID, bool) *engine.DeliveryRec {
	rec := &engine.DeliveryRec{}
	rec.SetChan(-1)
	return rec
}

// mustNew builds an injector over a fresh stub for a 2×4 network, bound to
// a fake engine sink exactly as engine.New would bind itself.
func mustNew(t *testing.T, plan Plan) (*Injector, *stubSubstrate, *fakeSink) {
	t.Helper()
	stub := newStub()
	inj, err := New(plan, 2, 4, stub)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sink := &fakeSink{}
	inj.BindRecSink(sink)
	return inj, stub, sink
}

// xmit pushes one fresh record through the injector.
func xmit(inj *Injector, ch int, latency sim.Time) {
	inj.TransmitRec(ch, latency, &engine.DeliveryRec{})
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
	inj, stub, sink := mustNew(t, Plan{Down: LinkFaults{Drop: 1}, Up: LinkFaults{Drop: 1}})
	xmit(inj, downCh(0, 0), 3)
	xmit(inj, upCh(1), 3)
	xmit(inj, 0, 3) // wired 0→0 stays lossless
	if sink.delivered != 1 {
		t.Errorf("delivered %d, want 1 (only the wired copy)", sink.delivered)
	}
	if sink.freed != 2 {
		t.Errorf("freed %d records, want 2 (dropped copies return to the pool)", sink.freed)
	}
	if got := inj.Stats().WirelessDrops; got != 2 {
		t.Errorf("WirelessDrops = %d, want 2", got)
	}
	if len(stub.transmits) != 1 {
		t.Errorf("inner saw %d transmits, want 1", len(stub.transmits))
	}
}

func TestDuplicateInjectsTwoCopies(t *testing.T) {
	inj, stub, sink := mustNew(t, Plan{Down: LinkFaults{Duplicate: 1}})
	xmit(inj, downCh(0, 0), 3)
	if sink.delivered != 2 {
		t.Errorf("delivered %d copies, want 2", sink.delivered)
	}
	if got := inj.Stats().WirelessDuplicates; got != 1 {
		t.Errorf("WirelessDuplicates = %d, want 1", got)
	}
	if len(stub.transmits) != 2 {
		t.Errorf("inner saw %d transmits, want 2 in-order copies", len(stub.transmits))
	}
}

func TestReorderBypassesFIFO(t *testing.T) {
	inj, stub, sink := mustNew(t, Plan{Up: LinkFaults{Reorder: 1, ReorderDelay: engine.Delay{Min: 2, Max: 2}}})
	xmit(inj, upCh(0), 3)
	if sink.delivered != 1 {
		t.Errorf("delivered %d, want 1", sink.delivered)
	}
	if len(stub.transmits) != 0 || len(stub.afters) != 1 {
		t.Errorf("inner saw %d transmits / %d afters, want the copy routed around the FIFO clamp", len(stub.transmits), len(stub.afters))
	}
	if stub.afters[0] != "@5" { // latency 3 + extra 2
		t.Errorf("straggler released after %s, want @5", stub.afters[0])
	}
	if got := inj.Stats().WirelessReorders; got != 1 {
		t.Errorf("WirelessReorders = %d, want 1", got)
	}
}

func TestCrashDiscardsWiredBothDirections(t *testing.T) {
	inj, stub, sink := mustNew(t, Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}}})
	stub.now = 50 // inside the crash window

	xmit(inj, 1*2+0, 3)        // wired 1→0: source crashed
	xmit(inj, 0*2+1, 3)        // wired 0→1: receiver crashed (delivery-time gate)
	xmit(inj, downCh(1, 0), 3) // crashed station's radio is dark

	if sink.delivered != 0 {
		t.Errorf("delivered %d, want 0 while mss1 is down", sink.delivered)
	}
	if sink.freed != 3 {
		t.Errorf("freed %d records, want 3 (every discarded copy returns to the pool)", sink.freed)
	}
	st := inj.Stats()
	if st.CrashDiscards != 2 {
		t.Errorf("CrashDiscards = %d, want 2 (tx + rx)", st.CrashDiscards)
	}
	if st.WirelessDrops != 1 {
		t.Errorf("WirelessDrops = %d, want 1 (dark downlink)", st.WirelessDrops)
	}

	stub.now = 100 // restarted
	xmit(inj, 1*2+0, 3)
	xmit(inj, downCh(1, 0), 3)
	if sink.delivered != 2 {
		t.Errorf("delivered %d after restart, want 2", sink.delivered)
	}
}

func TestFlapDarkensCellAndListedUplinks(t *testing.T) {
	inj, stub, sink := mustNew(t, Plan{Flaps: []Flap{{MSS: 0, MHs: []engine.MHID{2}, From: 10, Until: 20}}})

	check := func(now sim.Time, wantDelivered int, step string) {
		t.Helper()
		base := sink.delivered
		stub.now = now
		xmit(inj, downCh(0, 0), 1) // flapped cell's downlink
		xmit(inj, downCh(1, 0), 1) // other cell unaffected
		xmit(inj, upCh(2), 1)      // listed uplink
		xmit(inj, upCh(3), 1)      // unlisted uplink unaffected
		if got := sink.delivered - base; got != wantDelivered {
			t.Errorf("%s: delivered %d, want %d", step, got, wantDelivered)
		}
	}
	check(5, 4, "before flap")
	check(15, 2, "during flap")
	check(25, 4, "after flap")
}

func TestDownSinceOracle(t *testing.T) {
	inj, stub, _ := mustNew(t, Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}}})
	if _, down := inj.DownSince(1); down {
		t.Error("mss1 reported down before its crash")
	}
	stub.now = 50
	since, down := inj.DownSince(1)
	if !down || since != 10 {
		t.Errorf("DownSince(1) = (%d, %v) at t=50, want (10, true)", since, down)
	}
	stub.now = 100
	if _, down := inj.DownSince(1); down {
		t.Error("mss1 reported down after restart")
	}
	if _, down := inj.DownSince(0); down {
		t.Error("mss0 reported down despite never crashing")
	}
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
	stub := newStub()
	inj, err := New(Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}, {MSS: 0, At: 40}}}, 2, 4, stub)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng, err := engine.New(engine.Config{
		M: 2, N: 4, Params: cost.DefaultParams(),
		Wired: engine.FixedDelay(1), Wireless: engine.FixedDelay(1), Travel: engine.FixedDelay(1),
		SearchMode: engine.SearchAbstract,
	}, inj, true)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
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
	stub := newStub()
	inj, err := New(Plan{Crashes: []Crash{{MSS: 1, At: 40, RestartAt: 120}, {MSS: 0, At: 60}}}, 2, 4, stub)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng, err := engine.New(engine.Config{
		M: 2, N: 4, Params: cost.DefaultParams(),
		Wired: engine.FixedDelay(1), Wireless: engine.FixedDelay(1), Travel: engine.FixedDelay(1),
		SearchMode: engine.SearchAbstract,
	}, inj, true)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
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
	stub := newStub()
	stub.step = 100
	inj, err := New(Plan{Crashes: []Crash{{MSS: 1, At: 40, RestartAt: 120}}}, 2, 4, stub)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := engine.New(engine.Config{
		M: 2, N: 4, Params: cost.DefaultParams(),
		Wired: engine.FixedDelay(1), Wireless: engine.FixedDelay(1), Travel: engine.FixedDelay(1),
		SearchMode: engine.SearchAbstract,
	}, inj, true); err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	inj.Arm()
	if want := []string{"@40", "@120"}; !reflect.DeepEqual(stub.afters, want) {
		t.Errorf("Arm scheduled %v, want %v", stub.afters, want)
	}
}

// driveTraffic pushes a fixed per-channel traffic pattern through an
// injector and returns (fault events, stats) — the determinism witness.
func driveTraffic(t *testing.T, plan Plan, n int) ([]obs.Event, engine.FaultStats) {
	t.Helper()
	inj, _, _ := mustNew(t, plan)
	tr := obs.NewTracer(0)
	inj.SetTracer(tr)
	for i := 0; i < n; i++ {
		xmit(inj, downCh(i%2, i%4), sim.Time(1+i%3))
		xmit(inj, upCh(i%4), sim.Time(1+i%2))
		xmit(inj, (i%2)*2+(i+1)%2, 5)
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
			inj, _, _ := mustNew(t, tc.plan)
			tr := obs.NewTracer(0)
			inj.SetTracer(tr)
			xmit(inj, tc.ch, 1)
			xmit(inj, tc.ch, 1)
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
	inj, err := New(Plan{Down: LinkFaults{Drop: 0.05}, Up: LinkFaults{Drop: 1}}, 1000, 100000, newStub())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Errorf("New(M=1000, N=100000) allocated %d bytes, want < 32 MB", got)
	}
	tr := obs.NewTracer(0)
	inj.SetTracer(tr)
	inj.BindRecSink(&fakeSink{})
	last := engine.ChannelLayout{M: 1000, N: 100000}.Count() - 1
	inj.TransmitRec(last, 1, &engine.DeliveryRec{})
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

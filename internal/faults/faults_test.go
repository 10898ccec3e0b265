package faults

import (
	"fmt"
	"runtime"
	"testing"

	"mobiledist/internal/engine"
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
	rng       *sim.RNG
	sink      engine.RecSink
	transmits []string // "ch@latency" for in-order copies
	afters    []string // "@delay" for out-of-order (AfterRec) copies
}

func newStub() *stubSubstrate { return &stubSubstrate{rng: sim.NewRNG(99)} }

func (s *stubSubstrate) Now() sim.Time                   { return s.now }
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
// that survive to delivery and records returned to the pool, and runs the
// callback of a timer record it handed out.
type fakeSink struct {
	delivered int
	freed     int
	timers    map[*engine.DeliveryRec]func()
}

func (f *fakeSink) StepRec(rec *engine.DeliveryRec) {
	if fn, ok := f.timers[rec]; ok {
		delete(f.timers, rec)
		fn()
		return
	}
	f.delivered++
}
func (f *fakeSink) FreeRec(rec *engine.DeliveryRec) { f.freed++ }
func (f *fakeSink) CloneRec(rec *engine.DeliveryRec) *engine.DeliveryRec {
	c := *rec
	return &c
}
func (f *fakeSink) TimerRec(fn func()) *engine.DeliveryRec {
	rec := &engine.DeliveryRec{}
	rec.SetChan(-1)
	if f.timers == nil {
		f.timers = make(map[*engine.DeliveryRec]func())
	}
	f.timers[rec] = fn
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

func TestArmFiresCrashAndRestartHooks(t *testing.T) {
	inj, _, _ := mustNew(t, Plan{Crashes: []Crash{{MSS: 1, At: 10, RestartAt: 100}}})
	var events []string
	inj.OnCrash(func(mss engine.MSSID) { events = append(events, fmt.Sprintf("crash mss%d", int(mss))) })
	inj.OnRestart(func(mss engine.MSSID) { events = append(events, fmt.Sprintf("restart mss%d", int(mss))) })
	inj.Arm() // the stub steps AfterRec records synchronously
	if len(events) != 2 || events[0] != "crash mss1" || events[1] != "restart mss1" {
		t.Errorf("hook events = %v, want [crash mss1, restart mss1]", events)
	}
}

// driveTraffic pushes a fixed per-channel traffic pattern through an
// injector and returns (trace, stats) — the determinism witness.
func driveTraffic(t *testing.T, plan Plan, n int) (string, engine.FaultStats) {
	t.Helper()
	inj, _, _ := mustNew(t, plan)
	inj.RecordTrace(true)
	for i := 0; i < n; i++ {
		xmit(inj, downCh(i%2, i%4), sim.Time(1+i%3))
		xmit(inj, upCh(i%4), sim.Time(1+i%2))
		xmit(inj, (i%2)*2+(i+1)%2, 5)
	}
	return inj.Trace(), inj.Stats()
}

func TestSamePlanSameSeedSameTrace(t *testing.T) {
	plan := Plan{
		Seed: 42,
		Down: LinkFaults{Drop: 0.3, Duplicate: 0.1, Reorder: 0.05},
		Up:   LinkFaults{Drop: 0.2, Duplicate: 0.05},
	}
	t1, s1 := driveTraffic(t, plan, 200)
	t2, s2 := driveTraffic(t, plan, 200)
	if t1 != t2 {
		t.Fatal("same plan + seed produced different traces")
	}
	if s1 != s2 {
		t.Fatalf("same plan + seed produced different stats: %+v vs %+v", s1, s2)
	}
	plan.Seed = 43
	t3, _ := driveTraffic(t, plan, 200)
	if t1 == t3 {
		t.Fatal("different seeds produced identical traces — the seed is inert")
	}
}

// TestNewAllocatesLinear: an injector costs O(M+N) to build, whatever the
// channel count. At sim-route's size (M=10^3, N=10^5: 1.0e8 channel ids) a
// decision stream and a trace slot per id would be 4 GB before the first
// transmission.
func TestNewAllocatesLinear(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inj, err := New(Plan{Down: LinkFaults{Drop: 0.05}}, 1000, 100000, newStub())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Errorf("New(M=1000, N=100000) allocated %d bytes, want < 32 MB", got)
	}
	inj.RecordTrace(true)
	inj.BindRecSink(&fakeSink{})
	last := engine.ChannelLayout{M: 1000, N: 100000}.Count() - 1
	inj.TransmitRec(last, 1, &engine.DeliveryRec{})
	if got, want := inj.Trace(), fmt.Sprintf("ch%d#0 deliver\n", last); got != want {
		t.Errorf("trace of one uplink transmission = %q, want %q", got, want)
	}
}

// FuzzPlanDeterminism fuzzes fault probabilities, seed, and traffic volume:
// for any plan, driving the same traffic twice must yield byte-identical
// traces and identical counters. This is the load-bearing property of the
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
		t1, s1 := driveTraffic(t, plan, n)
		t2, s2 := driveTraffic(t, plan, n)
		if t1 != t2 {
			t.Fatalf("trace diverged for plan %+v n=%d", plan, n)
		}
		if s1 != s2 {
			t.Fatalf("stats diverged for plan %+v n=%d: %+v vs %+v", plan, n, s1, s2)
		}
	})
}

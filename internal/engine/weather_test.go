package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/faults"
	"mobiledist/internal/sim"
)

// heldTransport logs what the engine hands the transport — each in-order
// copy as "ch<id>@<latency>", each copy sent around the channel's FIFO
// order as "@<delay>" — and holds it until land steps the lot, in order,
// at the clock the test has set by then.
type heldTransport struct {
	now  sim.Time
	sink engine.RecSink
	log  []string
	held []*engine.DeliveryRec
}

func (h *heldTransport) Now() sim.Time                   { return h.now }
func (h *heldTransport) RNG() *sim.RNG                   { return sim.NewRNG(1) }
func (h *heldTransport) BindRecSink(sink engine.RecSink) { h.sink = sink }
func (h *heldTransport) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	h.log = append(h.log, fmt.Sprintf("ch%d@%d", ch, latency))
	h.held = append(h.held, rec)
}
func (h *heldTransport) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	h.log = append(h.log, fmt.Sprintf("@%d", d))
	h.held = append(h.held, rec)
}

func (h *heldTransport) land() {
	for len(h.held) > 0 {
		rec := h.held[0]
		h.held = h.held[1:]
		h.sink.StepRec(rec)
	}
}

// ran is a CrashObserver that logs the records that ran: a CrashRec(id)
// record is plain data whose step calls NoteCrash(id), so the tests
// transmit such records and tell them apart by id.
type ran struct{ ids []int }

func (r *ran) Name() string              { return "ran" }
func (r *ran) NoteCrash(id engine.MSSID) { r.ids = append(r.ids, int(id)) }

// weathered is an engine of 2 cells and 4 hosts whose Weather is the real
// fault model under plan.
type weathered struct {
	eng *engine.Engine
	inj *faults.Injector
	sub *heldTransport
	ran *ran
}

func newWeathered(t *testing.T, plan faults.Plan) *weathered {
	t.Helper()
	inj, err := faults.New(plan, 2, 4)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	w := &weathered{inj: inj, sub: &heldTransport{}, ran: &ran{}}
	if w.eng, err = engine.New(engine.Config{
		M: 2, N: 4, Params: cost.DefaultParams(),
		Wired: engine.FixedDelay(1), Wireless: engine.FixedDelay(1), Travel: engine.FixedDelay(1),
		SearchMode: engine.SearchAbstract,
	}, w.sub, inj); err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	w.eng.Register(w.ran)
	return w
}

// send transmits record id on ch with latency 3.
func (w *weathered) send(ch, id int) {
	w.eng.Transmit(ch, 3, w.eng.CrashRec(engine.MSSID(id), false))
}

// check lands what is held and compares the transport's log and the ids
// that ran with want, then requires every record back in the pool.
func (w *weathered) check(t *testing.T, wantLog []string, wantRan ...int) {
	t.Helper()
	w.sub.land()
	if !reflect.DeepEqual(w.sub.log, wantLog) {
		t.Errorf("transport saw %v, want %v", w.sub.log, wantLog)
	}
	if !reflect.DeepEqual(w.ran.ids, wantRan) {
		t.Errorf("records run: %v, want %v", w.ran.ids, wantRan)
	}
	if live := w.eng.LiveRecs(); live != 0 {
		t.Errorf("LiveRecs = %d after landing, want 0: a destroyed or discarded record must return to the pool", live)
	}
	w.sub.log, w.ran.ids = nil, nil
}

// Channel ids of the 2×4 numbering.
const wired01, wired10 = 0*2 + 1, 1*2 + 0

func downCh(mss, mh int) int { return 2*2 + mss*4 + mh }
func upCh(mh int) int        { return 2*2 + 2*4 + mh }

// TestWeatherDropReturnsTheRecordToThePool: a wireless transmission the
// weather drops never reaches the transport, and its record goes back to
// the pool unrun; wired traffic stays lossless.
func TestWeatherDropReturnsTheRecordToThePool(t *testing.T) {
	w := newWeathered(t, faults.Plan{Down: faults.LinkFaults{Drop: 1}, Up: faults.LinkFaults{Drop: 1}})
	w.send(downCh(0, 0), 0)
	w.send(upCh(1), 1)
	w.send(wired01, 2)
	w.check(t, []string{"ch1@3"}, 2)
	if got := w.eng.Stats().WirelessDrops; got != 2 {
		t.Errorf("Stats().WirelessDrops = %d, want 2", got)
	}
}

// TestWeatherDuplicateDeliversTwice: a duplicated transmission is two
// in-order copies on its channel, and each runs.
func TestWeatherDuplicateDeliversTwice(t *testing.T) {
	w := newWeathered(t, faults.Plan{Down: faults.LinkFaults{Duplicate: 1}})
	w.send(downCh(1, 2), 7)
	w.check(t, []string{fmt.Sprintf("ch%d@3", downCh(1, 2)), fmt.Sprintf("ch%d@3", downCh(1, 2))}, 7, 7)
}

// TestWeatherReorderLandsLateOutsideFIFO: a reordered transmission goes
// around the channel's FIFO order (AfterRec), its link latency plus the
// drawn extra delay late; duplicated as well, the first copy keeps its
// place and the duplicate straggles.
func TestWeatherReorderLandsLateOutsideFIFO(t *testing.T) {
	late := faults.LinkFaults{Reorder: 1, ReorderDelay: engine.Delay{Min: 2, Max: 2}}
	w := newWeathered(t, faults.Plan{Up: late})
	w.send(upCh(0), 1)
	w.check(t, []string{"@5"}, 1) // latency 3 + extra 2

	late.Duplicate = 1
	w = newWeathered(t, faults.Plan{Down: late})
	w.send(downCh(0, 3), 2)
	w.check(t, []string{fmt.Sprintf("ch%d@3", downCh(0, 3)), "@5"}, 2, 2)
}

// TestWeatherCrashDiscardsAtSenderAndReceiver: while mss1 is down, its
// wired sends are destroyed at the source, a wired record that lands at it
// is discarded there unrun — also one sent before the crash — and its
// radio is dark. After the restart all three get through.
func TestWeatherCrashDiscardsAtSenderAndReceiver(t *testing.T) {
	w := newWeathered(t, faults.Plan{Crashes: []faults.Crash{{MSS: 1, At: 10, RestartAt: 100}}})
	w.sub.now = 5
	w.send(wired01, 0) // in flight when mss1 crashes
	w.sub.now = 50
	w.send(wired10, 1)      // source crashed
	w.send(wired01, 2)      // receiver crashed
	w.send(downCh(1, 0), 3) // crashed station's radio
	w.check(t, []string{"ch1@3", "ch1@3"})
	st := w.inj.Stats()
	if st.CrashDiscards != 3 || st.WirelessDrops != 1 {
		t.Errorf("CrashDiscards, WirelessDrops = %d, %d; want 3 (one at the sender, two at the receiver), 1", st.CrashDiscards, st.WirelessDrops)
	}

	w.sub.now = 100
	w.send(wired10, 4)
	w.send(wired01, 5)
	w.send(downCh(1, 0), 6)
	w.check(t, []string{"ch2@3", "ch1@3", fmt.Sprintf("ch%d@3", downCh(1, 0))}, 4, 5, 6)
}

// TestWeatherFlapIsDark: inside a flap window the flapped cell's downlinks
// and the listed uplinks are dark; other cells and unlisted uplinks are
// not, and the window's end lifts it.
func TestWeatherFlapIsDark(t *testing.T) {
	w := newWeathered(t, faults.Plan{Flaps: []faults.Flap{{MSS: 0, MHs: []engine.MHID{2}, From: 10, Until: 20}}})
	for _, tc := range []struct {
		now  sim.Time
		want []int
	}{{5, []int{0, 1, 2, 3}}, {15, []int{1, 3}}, {25, []int{0, 1, 2, 3}}} {
		w.sub.now = tc.now
		w.send(downCh(0, 0), 0) // flapped cell
		w.send(downCh(1, 0), 1) // other cell
		w.send(upCh(2), 2)      // listed uplink
		w.send(upCh(3), 3)      // unlisted uplink
		w.sub.log = nil
		w.sub.land()
		if !reflect.DeepEqual(w.ran.ids, tc.want) {
			t.Errorf("t=%d: records run %v, want %v", tc.now, w.ran.ids, tc.want)
		}
		w.ran.ids = nil
	}
	if live := w.eng.LiveRecs(); live != 0 {
		t.Errorf("LiveRecs = %d, want 0", live)
	}
}

// TestFaultModelIsNoSubstrate: the fault model is a Weather the engine
// reads, not a layer of the transport: it implements neither end of the
// record seam.
func TestFaultModelIsNoSubstrate(t *testing.T) {
	inj := reflect.TypeOf((*faults.Injector)(nil))
	for _, iface := range []reflect.Type{
		reflect.TypeOf((*engine.Substrate)(nil)).Elem(),
		reflect.TypeOf((*engine.RecSink)(nil)).Elem(),
	} {
		if inj.Implements(iface) {
			t.Errorf("*faults.Injector implements engine.%s", iface.Name())
		}
	}
	if !inj.Implements(reflect.TypeOf((*engine.Weather)(nil)).Elem()) {
		t.Error("*faults.Injector does not implement engine.Weather")
	}
}

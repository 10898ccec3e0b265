package engine

import (
	"reflect"
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// tracedSubstrate logs each TransmitRec as the EvTransmit event the engine
// should have recorded for it, at a clock the test sets. run steps every
// transmission before any timer, as if each link took less than an ARQ
// timeout, so nothing is retransmitted.
type tracedSubstrate struct {
	sink          RecSink
	now           sim.Time
	sent          []obs.Event
	queue, timers []*DeliveryRec
}

func (s *tracedSubstrate) Now() sim.Time            { return s.now }
func (s *tracedSubstrate) RNG() *sim.RNG            { return sim.NewRNG(1) }
func (s *tracedSubstrate) BindRecSink(sink RecSink) { s.sink = sink }
func (s *tracedSubstrate) TransmitRec(ch int, latency sim.Time, rec *DeliveryRec) {
	s.sent = append(s.sent, obs.Event{T: s.now, Kind: obs.EvTransmit, A: int32(ch), B: int32(latency)})
	s.queue = append(s.queue, rec)
}
func (s *tracedSubstrate) AfterRec(d sim.Time, rec *DeliveryRec) { s.timers = append(s.timers, rec) }

func (s *tracedSubstrate) run() {
	for len(s.queue)+len(s.timers) > 0 {
		next := &s.timers
		if len(s.queue) > 0 {
			next = &s.queue
		}
		rec := (*next)[0]
		*next = (*next)[1:]
		s.sink.StepRec(rec)
	}
}

// calmWeather lets every transmission through, once and in order, and
// reports the counters it was built with.
type calmWeather struct {
	stats FaultStats
	sent  int32
}

func (w *calmWeather) Bind(PlanClock) {}
func (w *calmWeather) Transmit(int) (int32, int, bool, sim.Time) {
	w.sent++
	return w.sent - 1, 1, false, 0
}
func (w *calmWeather) Discard(int, int32) bool { return false }
func (w *calmWeather) Stats() FaultStats       { return w.stats }

// mhSink accepts every message at both tiers.
type mhSink struct{}

func (mhSink) Name() string                            { return "sink" }
func (mhSink) HandleMSS(Context, MSSID, From, Message) {}
func (mhSink) HandleMH(Context, MHID, Message)         {}

// TestTransmitRecordsEveryTransmission: the engine records one EvTransmit
// (T, channel, latency) per record it hands the substrate, wired and
// wireless, ARQ air copies and acks included, and nothing else of kind
// EvTransmit.
func TestTransmitRecordsEveryTransmission(t *testing.T) {
	tracer := obs.NewTracer(0)
	sub := &tracedSubstrate{now: 42}
	e, err := New(Config{
		M: 2, N: 2, Params: cost.DefaultParams(),
		Wired: FixedDelay(3), Wireless: FixedDelay(1), Travel: FixedDelay(1),
		SearchMode: SearchAbstract, Obs: tracer,
	}, sub, &calmWeather{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := e.Register(mhSink{})
	ctx.SendFixed(0, 1, "wired", cost.CatAlgorithm)
	ctx.SendToMH(0, 1, "routed", cost.CatAlgorithm) // mh1 is in cell 1: wired hop, then the downlink
	if err := ctx.SendFromMH(0, "up", cost.CatAlgorithm); err != nil {
		t.Fatal(err)
	}
	sub.run()
	var got []obs.Event
	for _, ev := range tracer.Events() {
		if ev.Kind == obs.EvTransmit {
			got = append(got, ev)
		}
	}
	if !reflect.DeepEqual(got, sub.sent) {
		t.Errorf("EvTransmit events %v, want one per TransmitRec %v", got, sub.sent)
	}
	// Two wired hops, and two wireless frames each with its ARQ ack.
	if len(sub.sent) != 6 {
		t.Errorf("%d transmissions, want 6", len(sub.sent))
	}
	if e.Stats().WirelessDrops != 0 || e.LiveRecs() != 0 {
		t.Errorf("drops %d, live records %d after the run; want 0, 0", e.Stats().WirelessDrops, e.LiveRecs())
	}
}

// TestStatsReadsWeatherDrops: Engine.Stats reports the wireless drops of
// the engine's Weather.
func TestStatsReadsWeatherDrops(t *testing.T) {
	e, err := New(Config{
		M: 1, N: 1, Params: cost.DefaultParams(),
		Wired: FixedDelay(1), Wireless: FixedDelay(1), Travel: FixedDelay(1),
		SearchMode: SearchAbstract,
	}, &tracedSubstrate{}, &calmWeather{stats: FaultStats{WirelessDrops: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().WirelessDrops; got != 7 {
		t.Errorf("Stats().WirelessDrops = %d, want the weather's 7", got)
	}
}

package engine

import (
	"testing"

	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

func TestStatsMergeFoldsFaultStats(t *testing.T) {
	s := Stats{Searches: 5, Moves: 2, WirelessDrops: 99}
	merged := s.Merge(FaultStats{WirelessDrops: 7})
	if merged.WirelessDrops != 7 {
		t.Errorf("WirelessDrops = %d, want 7 (substrate accounting wins)", merged.WirelessDrops)
	}
	if merged.Searches != 5 || merged.Moves != 2 {
		t.Errorf("Merge disturbed model counters: %+v", merged)
	}
	if s.WirelessDrops != 99 {
		t.Error("Merge mutated its receiver")
	}
}

// plainSubstrate is a minimal Substrate that does not report faults — the
// path a live transport or a fault-free simulator takes. Records are
// stepped synchronously through the bound sink.
type plainSubstrate struct {
	now       sim.Time
	sink      RecSink
	transmits int
}

func (p *plainSubstrate) Now() sim.Time            { return p.now }
func (p *plainSubstrate) BindRecSink(sink RecSink) { p.sink = sink }
func (p *plainSubstrate) TransmitRec(ch int, latency sim.Time, rec *DeliveryRec) {
	p.transmits++
	if p.sink != nil {
		p.sink.StepRec(rec)
	}
}
func (p *plainSubstrate) AfterRec(d sim.Time, rec *DeliveryRec) {
	if p.sink != nil {
		p.sink.StepRec(rec)
	}
}
func (p *plainSubstrate) EnqueueRec(rec *DeliveryRec) {
	if p.sink != nil {
		p.sink.StepRec(rec)
	}
}
func (p *plainSubstrate) RNG() *sim.RNG { return sim.NewRNG(1) }

func TestObserveSubstrateFaultStats(t *testing.T) {
	tracer := obs.NewTracer(0)

	// Non-reporting inner: the wrapper must report zeroes, not panic.
	sub := ObserveSubstrate(&plainSubstrate{}, tracer)
	fr, ok := sub.(FaultReporter)
	if !ok {
		t.Fatal("observed substrate does not implement FaultReporter")
	}
	if fs := fr.FaultStats(); fs != (FaultStats{}) {
		t.Errorf("fault-free inner reported %+v, want zeroes", fs)
	}

	// Nil tracer: wrapping is the identity, so the tracing-disabled hot
	// path keeps the raw substrate.
	raw := &plainSubstrate{}
	if got := ObserveSubstrate(raw, nil); got != Substrate(raw) {
		t.Error("ObserveSubstrate(raw, nil) did not return raw unchanged")
	}
}

func TestObserveSubstrateRecordsTransmit(t *testing.T) {
	tracer := obs.NewTracer(0)
	raw := &plainSubstrate{now: 42}
	sub := ObserveSubstrate(raw, tracer)
	sub.TransmitRec(3, 10, &DeliveryRec{})
	if raw.transmits != 1 {
		t.Fatal("TransmitRec did not forward to inner")
	}
	evs := tracer.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	want := obs.Event{T: 42, Kind: obs.EvTransmit, A: 3, B: 10}
	if evs[0] != want {
		t.Errorf("event = %+v, want %+v", evs[0], want)
	}
}

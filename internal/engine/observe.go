package engine

import (
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// observedSubstrate interposes the event tracer at the Substrate/Transmit
// seam — the same seam the fault injector wraps — so every message handed
// to the transport is recorded, whatever substrate (or injector stack)
// sits underneath. Only TransmitRec is observed here (every other seam
// method is the embedded inner substrate's); model-level events (mobility,
// delivery, search, ARQ) are emitted by the engine itself, which is the
// only layer that knows their meaning.
type observedSubstrate struct {
	Substrate
	t *obs.Tracer
}

var (
	_ Substrate     = (*observedSubstrate)(nil)
	_ FaultReporter = (*observedSubstrate)(nil)
)

// ObserveSubstrate wraps inner so every TransmitRec records an
// obs.EvTransmit event. A nil tracer returns inner unchanged, keeping the
// tracing-disabled hot path free of the extra indirection.
func ObserveSubstrate(inner Substrate, t *obs.Tracer) Substrate {
	if t == nil {
		return inner
	}
	return &observedSubstrate{Substrate: inner, t: t}
}

func (o *observedSubstrate) TransmitRec(ch int, latency sim.Time, rec *DeliveryRec) {
	o.t.Record(o.Now(), obs.EvTransmit, int32(ch), int32(latency), 0)
	o.Substrate.TransmitRec(ch, latency, rec)
}

// FaultStats forwards the inner substrate's loss accounting so wrapping
// the injector does not hide it from Engine.Stats; a fault-free inner
// substrate reports zeroes.
func (o *observedSubstrate) FaultStats() FaultStats {
	if fr, ok := o.Substrate.(FaultReporter); ok {
		return fr.FaultStats()
	}
	return FaultStats{}
}

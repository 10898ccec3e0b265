package engine

import "mobiledist/internal/sim"

// Transmit exposes transmit to the external tests, which drive it with the
// real fault model (internal/faults imports engine, so they cannot live in
// package engine).
func (e *Engine) Transmit(ch int, latency sim.Time, rec *DeliveryRec) { e.transmit(ch, latency, rec) }

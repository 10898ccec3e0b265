package engine

import "mobiledist/internal/sim"

// Transmit exposes transmit to the external tests, which drive it with the
// real fault model (internal/faults imports engine, so they cannot live in
// package engine).
func (e *Engine) Transmit(ch int, latency sim.Time, rec *DeliveryRec) { e.transmit(ch, latency, rec) }

// Registered exposes how many algorithms are registered, so the external
// constructor tests can check that a rejected one left nothing behind.
func (e *Engine) Registered() int { return len(e.algs) }

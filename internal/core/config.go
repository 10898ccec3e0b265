package core

import (
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/faults"
	"mobiledist/internal/obs"
)

// Fault-injection vocabulary, re-exported so drivers configure plans
// without importing internal/faults directly.
type (
	// FaultPlan is a declarative fault schedule (see internal/faults).
	FaultPlan = faults.Plan
	// LinkFaults are per-transmission wireless fault probabilities.
	LinkFaults = faults.LinkFaults
	// Flap is a timed wireless outage of one cell.
	Flap = faults.Flap
	// Crash is a timed MSS failure (with optional restart).
	Crash = faults.Crash
)

// Config describes a two-tier network instance driven by the deterministic
// simulator: the model parameters (the embedded engine.Config, so cfg.M,
// cfg.Wired, cfg.Obs and the rest are its fields) plus what only the kernel
// substrate has.
type Config struct {
	engine.Config

	// Seed initialises the deterministic RNG.
	Seed uint64

	// Faults, when non-nil and non-empty, gives the engine a deterministic
	// fault model applying the plan (internal/faults) as its Weather, and
	// with it the reliable-wireless sublayer, so algorithms keep the
	// model's delivery guarantees under loss (see NewEngine).
	Faults *FaultPlan

	// StepLimit bounds total simulation events as a runaway-protocol
	// backstop; 0 applies a generous default.
	StepLimit uint64

	// Shards partitions the kernel's pending-event set by channel into the
	// given number of per-shard heaps (sim.NewShardedKernel), rounded up to
	// a power of two. 0 or 1 keeps the default timing-wheel kernel, which is
	// faster and smaller than 512 shards at every scale measured (DESIGN
	// §7.1). The schedule is byte-identical either way; sharding only
	// changes the data structure's constants, which the bench probes
	// sim.single.schedule_step_ns and sim.sharded.schedule_step_ns measure
	// side by side.
	Shards int
}

// defaultFaults is the plan DefaultConfig attaches to every new system;
// nil (the normal state) means fault-free. See SetDefaultFaultPlan.
var defaultFaults *FaultPlan

// SetDefaultFaultPlan makes every DefaultConfig-built system run under the
// given fault plan; nil restores fault-free defaults. It exists so table
// generators (cmd/mobilexp's -drop/-dup/-flap/-crash flags) can regenerate
// the whole experiment suite under one configurable unreliability setting
// without threading a plan through every experiment constructor. Set it
// during process setup, before building systems — not concurrently with
// them.
func SetDefaultFaultPlan(p *FaultPlan) { defaultFaults = p }

// DefaultFaultPlan returns the plan DefaultConfig currently attaches.
func DefaultFaultPlan() *FaultPlan { return defaultFaults }

// defaultObs is the tracer DefaultConfig attaches to every new system; nil
// (the normal state) means tracing off. See SetDefaultTracer.
var defaultObs *obs.Tracer

// SetDefaultTracer makes every DefaultConfig-built system record into the
// given tracer; nil restores tracing-off defaults. Like SetDefaultFaultPlan
// it exists so cmd/mobilexp's -trace flag can capture the whole experiment
// suite without threading a tracer through every experiment constructor.
// Set it during process setup, before building systems. One tracer shared
// by concurrently-running systems is safe (Record locks) but interleaves
// their events; for deterministic traces run systems sequentially.
func SetDefaultTracer(t *obs.Tracer) { defaultObs = t }

// DefaultTracer returns the tracer DefaultConfig currently attaches.
func DefaultTracer() *obs.Tracer { return defaultObs }

// DefaultConfig returns a paper-faithful configuration for m stations and
// n mobile hosts.
func DefaultConfig(m, n int) Config {
	return Config{
		Config: engine.Config{
			M:          m,
			N:          n,
			Params:     cost.DefaultParams(),
			Wired:      Delay{Min: 5, Max: 20},
			Wireless:   Delay{Min: 1, Max: 4},
			Travel:     Delay{Min: 10, Max: 50},
			SearchMode: SearchAbstract,
			Obs:        defaultObs,
		},
		Seed:   1,
		Faults: defaultFaults,
	}
}

// NewEngine builds the engine every driver runs on top of its substrate,
// with the fault model (only under a non-empty plan) as its Weather, and
// returns the engine with the injector (nil when fault-free). It is also
// the one place the two derived model rules are applied: a non-empty fault
// plan turns the ARQ sublayer on — the engine runs ARQ exactly when it has
// a Weather, and there is no other switch (without ARQ, injected loss would
// silently void the model's FIFO and prefix-delivery guarantees) — and a
// zero SearchMode means SearchAbstract.
func NewEngine(model engine.Config, plan *FaultPlan, sub engine.Substrate) (*engine.Engine, *faults.Injector, error) {
	var inj *faults.Injector
	var weather engine.Weather // a nil *Injector in it would not be nil
	if plan != nil && !plan.Empty() {
		var err error
		if inj, err = faults.New(*plan, model.M, model.N); err != nil {
			return nil, nil, err
		}
		inj.SetTracer(model.Obs)
		weather = inj
	}
	if model.SearchMode == 0 {
		model.SearchMode = SearchAbstract
	}
	model.Obs.SetTopology(model.M, model.N)
	eng, err := engine.New(model, sub, weather)
	if err != nil {
		return nil, nil, err
	}
	return eng, inj, nil
}

package engine

import (
	"fmt"
	"math"

	"mobiledist/internal/cost"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// Delay is an inclusive range of virtual-time latencies. Each transmission
// draws uniformly from the range; FIFO order per channel is preserved
// regardless of the draw.
type Delay struct {
	Min, Max sim.Time
}

// FixedDelay returns a degenerate range with a single value.
func FixedDelay(d sim.Time) Delay { return Delay{Min: d, Max: d} }

// Validate reports whether the range is usable, naming the range in errors.
func (d Delay) Validate(name string) error {
	if d.Min < 0 || d.Max < d.Min {
		return fmt.Errorf("engine: invalid %s delay range [%d,%d]", name, d.Min, d.Max)
	}
	return nil
}

// Config describes the substrate-independent parameters of a two-tier
// network: sizes, cost constants, link latency ranges, the search service,
// and initial placement. It is the only declaration of these parameters:
// the drivers' configs (core.Config, rt.Config, and through it
// netrt.Config) embed it, so cfg.M or cfg.WaiterLimit on any of them is this
// struct's field, and each driver declares only its substrate's own knobs
// (the simulator's seed and step limit, the live runtimes' tick) beside it.
type Config struct {
	// M is the number of mobile support stations (M >= 1).
	M int
	// N is the number of mobile hosts (N >= 1). The paper assumes N >> M but
	// the model does not require it.
	N int
	// Params are the message cost constants.
	Params cost.Params

	// Wired is the MSS-to-MSS latency range.
	Wired Delay
	// Wireless is the MH<->MSS latency range.
	Wireless Delay
	// Travel is how long a MH spends between leaving one cell and joining
	// the next.
	Travel Delay

	// SearchMode selects the search service (abstract Csearch vs broadcast).
	SearchMode SearchMode
	// WaiterLimit caps the number of delivery records parked per
	// in-transit MH (the waiter queue a never-arriving MH would otherwise
	// grow without bound). On overflow a routed payload is offered to the
	// custody hook when one is bound; anything not taken into custody is
	// dropped and counted in Stats.WaiterDrops. 0 (the default) means
	// unlimited, which keeps seeded traces byte-identical.
	WaiterLimit int

	// Placement maps each MH to its initial cell. Nil means round-robin
	// (mh i starts at MSS i mod M).
	Placement func(mh MHID) MSSID

	// Obs, when non-nil, receives typed observability events (internal/obs)
	// from the engine's model-level emission points: mobility protocol
	// steps, routed deliveries with chase-hop counts, searches, delivery
	// failures, ARQ activity, and one EvTransmit per channel transmission,
	// recorded as the engine hands the record to the substrate. Nil (the
	// default) costs one branch per would-be event and allocates nothing.
	Obs *obs.Tracer
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.M < 1 {
		return fmt.Errorf("engine: M must be >= 1, got %d", c.M)
	}
	if c.N < 1 {
		return fmt.Errorf("engine: N must be >= 1, got %d", c.N)
	}
	// MSSID and MHID are int32 (record and host-state layout, DESIGN §7.2).
	if c.M > math.MaxInt32 || c.N > math.MaxInt32 {
		return fmt.Errorf("engine: M and N must fit an int32 id, got M=%d N=%d", c.M, c.N)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Wired.Validate("wired"); err != nil {
		return err
	}
	if err := c.Wireless.Validate("wireless"); err != nil {
		return err
	}
	if err := c.Travel.Validate("travel"); err != nil {
		return err
	}
	if c.WaiterLimit < 0 {
		return fmt.Errorf("engine: WaiterLimit must be >= 0, got %d", c.WaiterLimit)
	}
	switch c.SearchMode {
	case SearchAbstract, SearchBroadcast:
	default:
		return fmt.Errorf("engine: unknown search mode %d", int(c.SearchMode))
	}
	return nil
}

package mobiledist

import "mobiledist/internal/rt"

// Live runtime: the same algorithms on a real executor goroutine and the wall
// clock. One executor runs all algorithm state, and every deferred record —
// a delivery on any FIFO channel of the model, at its wall-clock link latency
// clamped behind the channel's previous one, or a timer — waits in that
// executor's one due queue. Use the simulator (NewSystem) for reproducible
// measurements and the live runtime for operational demos and race-detector
// validation.
type (
	// LiveSystem is the live runtime driver. It implements
	// Registrar, so every algorithm constructor in this package accepts it.
	LiveSystem = rt.System
	// LiveConfig describes a live two-tier network: the same embedded model
	// parameters as Config, plus Seed, Tick and Faults. Start from
	// DefaultLiveConfig and assign fields.
	LiveConfig = rt.Config
)

// NewLiveSystem builds a live runtime from cfg. Lifecycle: register
// algorithms, Start, interact via Do / Move / Disconnect / Reconnect, then
// WaitIdle and Stop.
func NewLiveSystem(cfg LiveConfig) (*LiveSystem, error) { return rt.NewSystem(cfg) }

// DefaultLiveConfig returns a live configuration for m stations and n
// mobile hosts.
func DefaultLiveConfig(m, n int) LiveConfig { return rt.DefaultConfig(m, n) }

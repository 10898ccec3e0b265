package workload

// Scale scenarios: pre-generated, seeded operation streams for driving the
// simulation at 10^4..10^6 mobile hosts. Unlike the closure-chained
// generators in workload.go (which draw from the kernel RNG as they run), a
// scale scenario is materialised up front as a flat op list — a pure
// function of ScaleConfig — so the same scenario can be replayed against
// different kernel configurations (timing wheel vs sharded) and the
// byte-identical determinism contract can be asserted on the generator
// itself.

import (
	"fmt"
	"hash/fnv"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// ScaleKind selects a scale-suite traffic shape.
type ScaleKind int

const (
	// ScaleRoute is routed MSS→MH delivery across the whole population:
	// every op sends one message from a random station to a random host.
	ScaleRoute ScaleKind = iota + 1
	// ScaleChurn is disconnect/reconnect cycling: every op flips one host's
	// connectivity, exercising the flag plumbing and handoff paths.
	ScaleChurn
	// ScaleSearchChase races mobility against delivery: every op moves a
	// host and immediately routes a message at it, so deliveries park on
	// waiters and chase across cells.
	ScaleSearchChase
)

// String returns the kind name used in benchmark and report labels.
func (k ScaleKind) String() string {
	switch k {
	case ScaleRoute:
		return "route"
	case ScaleChurn:
		return "churn"
	case ScaleSearchChase:
		return "search-chase"
	default:
		return fmt.Sprintf("ScaleKind(%d)", int(k))
	}
}

// ScaleConfig parameterises a pre-generated scale scenario.
type ScaleConfig struct {
	// N and M size the network (hosts, stations).
	N, M int
	// Seed makes the op stream a pure function of this config.
	Seed uint64
	// Kind selects the traffic shape.
	Kind ScaleKind
	// Ops is the total number of operations in the scenario.
	Ops int
	// Chains is the number of concurrent injection chains the runner keeps
	// in flight; it bounds the standing event population. 0 means
	// min(N, Ops).
	Chains int
}

func (c ScaleConfig) validate() error {
	if c.N < 1 || c.M < 1 {
		return fmt.Errorf("workload: scale config needs N >= 1 and M >= 1, got N=%d M=%d", c.N, c.M)
	}
	if c.Ops < 1 {
		return fmt.Errorf("workload: scale config needs Ops >= 1, got %d", c.Ops)
	}
	if c.Chains < 0 {
		return fmt.Errorf("workload: negative Chains")
	}
	switch c.Kind {
	case ScaleRoute, ScaleChurn, ScaleSearchChase:
	default:
		return fmt.Errorf("workload: unknown scale kind %d", int(c.Kind))
	}
	return nil
}

// chains resolves the configured chain count.
func (c ScaleConfig) chains() int {
	if c.Chains > 0 {
		return c.Chains
	}
	n := c.N
	if c.Ops < n {
		n = c.Ops
	}
	return n
}

// ScaleOp is one pre-generated operation. Wait is the delay after the
// owning chain's previous op; MH and MSS are the op's operands (target host
// and station, interpreted per ScaleKind).
type ScaleOp struct {
	Wait sim.Time
	MH   core.MHID
	MSS  core.MSSID
}

// ScaleScenario is a materialised op stream plus the config that produced
// it. Op i belongs to chain i mod Chains; chains replay their ops in order,
// each op firing Wait ticks after the previous one completed injection.
type ScaleScenario struct {
	Cfg ScaleConfig
	Ops []ScaleOp
}

// GenScale materialises the scenario for cfg. The op stream is a pure
// function of cfg — same config, same bytes — which
// TestScaleScenarioDeterministic pins at N=10^5.
func GenScale(cfg ScaleConfig) (*ScaleScenario, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	ops := make([]ScaleOp, cfg.Ops)
	for i := range ops {
		ops[i] = ScaleOp{
			// Coarse waits collide many chains onto each tick — the
			// FIFO-clamped, batched-arrival regime both kernels are
			// built for.
			Wait: sim.Time(rng.Intn(16) + 1),
			MH:   core.MHID(rng.Intn(cfg.N)),
			MSS:  core.MSSID(rng.Intn(cfg.M)),
		}
	}
	return &ScaleScenario{Cfg: cfg, Ops: ops}, nil
}

// Fingerprint hashes the full op stream (FNV-1a over every field in order).
// Two scenarios with equal fingerprints are byte-identical for the
// purposes of the determinism contract.
func (s *ScaleScenario) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(uint64(s.Cfg.N))
	word(uint64(s.Cfg.M))
	word(s.Cfg.Seed)
	word(uint64(s.Cfg.Kind))
	for i := range s.Ops {
		op := &s.Ops[i]
		word(uint64(op.Wait))
		word(uint64(op.MH))
		word(uint64(op.MSS))
	}
	return h.Sum64()
}

// NewScaleSystem builds a simulation system sized for the scenario with the
// given kernel shard count (0 or 1 for the default timing-wheel kernel).
func NewScaleSystem(sc *ScaleScenario, shards int) (*core.System, error) {
	cfg := core.DefaultConfig(sc.Cfg.M, sc.Cfg.N)
	cfg.Seed = sc.Cfg.Seed
	cfg.Shards = shards
	return core.NewSystem(cfg)
}

// ScaleResult summarises one scenario run.
type ScaleResult struct {
	// Injected is the number of scenario ops that fired.
	Injected int64
	// Delivered counts messages delivered to MH handlers (route and
	// search-chase kinds; 0 for churn).
	Delivered int64
	// Messages is the total message count charged to the cost meter across
	// all categories and channel kinds — the numerator of the simulated
	// msgs/sec benchmark metric.
	Messages int64
	// Steps is the number of kernel events the run processed.
	Steps uint64
	// Elapsed is the final virtual clock.
	Elapsed sim.Time
}

// scaleSink is the algorithm scale scenarios run under: it counts
// deliveries and otherwise does nothing, so the measured cost is the
// engine's, not a protocol's.
type scaleSink struct {
	delivered int64
}

func (s *scaleSink) Name() string { return "scale-sink" }

func (s *scaleSink) HandleMSS(ctx core.Context, at core.MSSID, from core.From, msg core.Message) {
}

func (s *scaleSink) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {
	s.delivered++
}

// scaleDriver replays a scenario's chains. Each chain is a cursor, the
// index of its next op, and its pending injection is one kernel event
// carrying a pointer to that cursor under the one invoker step (inject,
// bound once), so a replay allocates nothing per op
// (TestRunScaleAllocsFlatInOps).
type scaleDriver struct {
	sys      *core.System
	ctx      core.Context
	sc       *ScaleScenario
	chains   int
	step     func(any)
	injected int64
}

// schedule queues the op at *cur its Wait ticks from now, under key 0 like
// sys.Schedule, so either kernel orders it as it orders any other event.
func (d *scaleDriver) schedule(cur *int) {
	if err := d.sys.Kernel().ScheduleCallKeyedErr(0, d.sc.Ops[*cur].Wait, d.step, cur); err != nil {
		panic(err)
	}
}

// inject applies the chain's current op and queues its next one.
func (d *scaleDriver) inject(a any) {
	cur := a.(*int)
	d.apply(d.sc.Ops[*cur])
	*cur += d.chains
	if *cur < len(d.sc.Ops) {
		d.schedule(cur)
	}
}

func (d *scaleDriver) apply(op ScaleOp) {
	switch d.sc.Cfg.Kind {
	case ScaleRoute:
		d.ctx.SendToMH(op.MSS, op.MH, nil, cost.CatAlgorithm)
	case ScaleChurn:
		switch _, status := d.sys.Where(op.MH); status {
		case core.StatusConnected:
			_ = d.sys.Disconnect(op.MH)
		case core.StatusDisconnected:
			_ = d.sys.Reconnect(op.MH, op.MSS, true)
		}
		// In transit: skip — the host is already mid-protocol.
	case ScaleSearchChase:
		_ = d.sys.Move(op.MH, op.MSS)
		from := core.MSSID((int(op.MSS) + 1) % d.sc.Cfg.M)
		d.ctx.SendToMH(from, op.MH, nil, cost.CatAlgorithm)
	}
	d.injected++
}

// RunScale registers a counting sink on sys, injects the scenario through
// Chains concurrent chains, runs the kernel to quiescence, and reports the
// totals. The system must be freshly built (NewScaleSystem) and not yet
// run.
func RunScale(sys *core.System, sc *ScaleScenario) (ScaleResult, error) {
	sink := &scaleSink{}
	d := &scaleDriver{sys: sys, ctx: sys.Register(sink), sc: sc, chains: sc.Cfg.chains()}
	d.step = d.inject
	cursor := make([]int, min(d.chains, len(sc.Ops)))
	for c := range cursor {
		cursor[c] = c
		d.schedule(&cursor[c])
	}
	if err := sys.Run(); err != nil {
		return ScaleResult{}, err
	}
	m := sys.Meter()
	var msgs int64
	for _, kind := range cost.Kinds() {
		msgs += m.KindTotal(kind)
	}
	return ScaleResult{
		Injected:  d.injected,
		Delivered: sink.delivered,
		Messages:  msgs,
		Steps:     sys.Kernel().Steps(),
		Elapsed:   sys.Now(),
	}, nil
}

// Package workload provides seeded, deterministic traffic and mobility
// generators for the experiment suite: cell-switch processes with tunable
// locality, request generators for the mutual exclusion algorithms, group
// message traffic with a controllable mobility-to-message ratio (the
// paper's MOB/MSG), and disconnect/reconnect churn.
//
// All generators draw from the simulation kernel's RNG (or forks of it), so
// a run is a pure function of the system seed and the workload parameters.
package workload

import (
	"fmt"

	"mobiledist/internal/core"
	"mobiledist/internal/sim"
)

// Span is an inclusive range of virtual-time intervals.
type Span struct {
	Min, Max sim.Time
}

// fixedSpan returns a degenerate range.
func FixedSpan(d sim.Time) Span { return Span{Min: d, Max: d} }

func (s Span) validate(name string) error {
	if s.Min < 0 || s.Max < s.Min {
		return fmt.Errorf("workload: invalid %s span [%d,%d]", name, s.Min, s.Max)
	}
	return nil
}

func (s Span) draw(rng *sim.RNG) sim.Time {
	return rng.Duration(s.Min, s.Max)
}

// MobilityConfig parameterises a mobility process.
type MobilityConfig struct {
	// MHs are the movers; nil means every MH in the system.
	MHs []core.MHID
	// Interval is the time between a MH's consecutive moves.
	Interval Span
	// MovesPerMH bounds each mover's total moves so simulations quiesce.
	MovesPerMH int
	// Locality is the probability that a move targets the ring-adjacent
	// cell (current+1 mod M) instead of a uniformly random other cell.
	// 1.0 yields maximal locality, 0.0 uniform scattering.
	Locality float64
	// Start delays the first move.
	Start sim.Time
}

// Mobility drives random cell switches.
type Mobility struct {
	sys   *core.System
	cfg   MobilityConfig
	rng   *sim.RNG
	moves int64
}

// NewMobility installs a mobility process on sys. Call before Run.
func NewMobility(sys *core.System, cfg MobilityConfig) (*Mobility, error) {
	if err := cfg.Interval.validate("interval"); err != nil {
		return nil, err
	}
	if cfg.Locality < 0 || cfg.Locality > 1 {
		return nil, fmt.Errorf("workload: locality %v outside [0,1]", cfg.Locality)
	}
	if cfg.MovesPerMH < 0 {
		return nil, fmt.Errorf("workload: negative MovesPerMH")
	}
	if cfg.MHs == nil {
		cfg.MHs = core.AllMHs(sys.Config().N)
	}
	w := &Mobility{sys: sys, cfg: cfg, rng: sys.Kernel().RNG().Fork()}
	for _, mh := range cfg.MHs {
		w.scheduleNext(mh, cfg.MovesPerMH, cfg.Start+w.cfg.Interval.draw(w.rng))
	}
	return w, nil
}

// Moves reports completed moves issued by this process.
func (w *Mobility) Moves() int64 { return w.moves }

func (w *Mobility) scheduleNext(mh core.MHID, remaining int, delay sim.Time) {
	if remaining <= 0 {
		return
	}
	w.sys.Schedule(delay, func() {
		at, status := w.sys.Where(mh)
		if status != core.StatusConnected {
			// Busy moving or disconnected; try again later without
			// consuming the budget.
			w.scheduleNext(mh, remaining, w.cfg.Interval.draw(w.rng))
			return
		}
		to := w.pickTarget(at)
		if to != at {
			if err := w.sys.Move(mh, to); err == nil {
				w.moves++
				remaining--
			}
		}
		w.scheduleNext(mh, remaining, w.cfg.Interval.draw(w.rng))
	})
}

func (w *Mobility) pickTarget(at core.MSSID) core.MSSID {
	m := w.sys.Config().M
	if m == 1 {
		return at
	}
	if w.rng.Float64() < w.cfg.Locality {
		return core.MSSID((int(at) + 1) % m)
	}
	// Uniform over the other cells.
	t := w.rng.Intn(m - 1)
	if t >= int(at) {
		t++
	}
	return core.MSSID(t)
}

// RequestConfig parameterises a request generator.
type RequestConfig struct {
	// MHs are the requesters; nil means every MH.
	MHs []core.MHID
	// Interval is the time between a MH's consecutive requests.
	Interval Span
	// RequestsPerMH bounds each requester's total requests.
	RequestsPerMH int
	// Start delays the first request.
	Start sim.Time
}

// Requests periodically invokes an issue function (such as L2.Request) for
// each configured MH.
type Requests struct {
	sys    *core.System
	cfg    RequestConfig
	rng    *sim.RNG
	issue  func(core.MHID) error
	issued int64
	errs   int64
}

// NewRequests installs a request generator; issue is called on the kernel
// goroutine. Errors from issue (for example "already has an outstanding
// request") are counted and the slot retried later.
func NewRequests(sys *core.System, cfg RequestConfig, issue func(core.MHID) error) (*Requests, error) {
	if issue == nil {
		return nil, fmt.Errorf("workload: nil issue function")
	}
	if err := cfg.Interval.validate("interval"); err != nil {
		return nil, err
	}
	if cfg.RequestsPerMH < 0 {
		return nil, fmt.Errorf("workload: negative RequestsPerMH")
	}
	if cfg.MHs == nil {
		cfg.MHs = core.AllMHs(sys.Config().N)
	}
	w := &Requests{sys: sys, cfg: cfg, rng: sys.Kernel().RNG().Fork(), issue: issue}
	for _, mh := range cfg.MHs {
		w.scheduleNext(mh, cfg.RequestsPerMH, cfg.Start+w.cfg.Interval.draw(w.rng))
	}
	return w, nil
}

// Issued reports successfully issued requests.
func (w *Requests) Issued() int64 { return w.issued }

// Errors reports issue attempts that returned an error.
func (w *Requests) Errors() int64 { return w.errs }

func (w *Requests) scheduleNext(mh core.MHID, remaining int, delay sim.Time) {
	if remaining <= 0 {
		return
	}
	w.sys.Schedule(delay, func() {
		if _, status := w.sys.Where(mh); status != core.StatusConnected {
			w.scheduleNext(mh, remaining, w.cfg.Interval.draw(w.rng))
			return
		}
		if err := w.issue(mh); err != nil {
			w.errs++
			w.scheduleNext(mh, remaining, w.cfg.Interval.draw(w.rng))
			return
		}
		w.issued++
		w.scheduleNext(mh, remaining-1, w.cfg.Interval.draw(w.rng))
	})
}

// ChurnConfig parameterises disconnect/reconnect cycles.
type ChurnConfig struct {
	// MHs are the churning hosts; nil means every MH.
	MHs []core.MHID
	// UpFor is how long a MH stays connected before disconnecting.
	UpFor Span
	// DownFor is how long it stays disconnected before reconnecting.
	DownFor Span
	// Cycles bounds disconnect/reconnect rounds per MH.
	Cycles int
	// KnowsPrev controls whether the reconnect() supplies the previous MSS
	// (Section 2); false forces the new MSS to query every fixed host.
	KnowsPrev bool
	// Start delays the first disconnection.
	Start sim.Time
}

// Churn drives voluntary disconnections and reconnections.
type Churn struct {
	sys         *core.System
	cfg         ChurnConfig
	rng         *sim.RNG
	disconnects int64
	reconnects  int64
}

// NewChurn installs a churn process on sys.
func NewChurn(sys *core.System, cfg ChurnConfig) (*Churn, error) {
	if err := cfg.UpFor.validate("up-for"); err != nil {
		return nil, err
	}
	if err := cfg.DownFor.validate("down-for"); err != nil {
		return nil, err
	}
	if cfg.Cycles < 0 {
		return nil, fmt.Errorf("workload: negative Cycles")
	}
	if cfg.MHs == nil {
		cfg.MHs = core.AllMHs(sys.Config().N)
	}
	w := &Churn{sys: sys, cfg: cfg, rng: sys.Kernel().RNG().Fork()}
	for _, mh := range cfg.MHs {
		w.scheduleDown(mh, cfg.Cycles, cfg.Start+w.cfg.UpFor.draw(w.rng))
	}
	return w, nil
}

// Disconnects reports completed disconnections.
func (w *Churn) Disconnects() int64 { return w.disconnects }

// Reconnects reports completed reconnections.
func (w *Churn) Reconnects() int64 { return w.reconnects }

func (w *Churn) scheduleDown(mh core.MHID, remaining int, delay sim.Time) {
	if remaining <= 0 {
		return
	}
	w.sys.Schedule(delay, func() {
		if _, status := w.sys.Where(mh); status != core.StatusConnected {
			w.scheduleDown(mh, remaining, w.cfg.UpFor.draw(w.rng))
			return
		}
		if err := w.sys.Disconnect(mh); err != nil {
			w.scheduleDown(mh, remaining, w.cfg.UpFor.draw(w.rng))
			return
		}
		w.disconnects++
		w.sys.Schedule(w.cfg.DownFor.draw(w.rng), func() {
			at := core.MSSID(w.rng.Intn(w.sys.Config().M))
			if err := w.sys.Reconnect(mh, at, w.cfg.KnowsPrev); err != nil {
				return
			}
			w.reconnects++
			w.scheduleDown(mh, remaining-1, w.cfg.UpFor.draw(w.rng))
		})
	})
}

// TrafficConfig parameterises a group-message traffic generator.
type TrafficConfig struct {
	// Senders issue group messages in round-robin order; must be group
	// members.
	Senders []core.MHID
	// Interval is the time between consecutive group messages.
	Interval Span
	// Messages is the total number of group messages to send.
	Messages int
	// Start delays the first message.
	Start sim.Time
}

// Traffic drives group messages through a send function.
type Traffic struct {
	sys  *core.System
	cfg  TrafficConfig
	rng  *sim.RNG
	send func(core.MHID, any) error
	sent int64
	errs int64
}

// NewTraffic installs a group-traffic process; send is typically a
// group.Comm's Send method.
func NewTraffic(sys *core.System, cfg TrafficConfig, send func(core.MHID, any) error) (*Traffic, error) {
	if send == nil {
		return nil, fmt.Errorf("workload: nil send function")
	}
	if len(cfg.Senders) == 0 {
		return nil, fmt.Errorf("workload: no senders")
	}
	if err := cfg.Interval.validate("interval"); err != nil {
		return nil, err
	}
	if cfg.Messages < 0 {
		return nil, fmt.Errorf("workload: negative Messages")
	}
	w := &Traffic{sys: sys, cfg: cfg, rng: sys.Kernel().RNG().Fork(), send: send}
	w.scheduleNext(0, cfg.Messages, cfg.Start+w.cfg.Interval.draw(w.rng))
	return w, nil
}

// Sent reports group messages successfully issued.
func (w *Traffic) Sent() int64 { return w.sent }

// Errors reports send attempts that failed (such as a disconnected sender).
func (w *Traffic) Errors() int64 { return w.errs }

func (w *Traffic) scheduleNext(turn, remaining int, delay sim.Time) {
	if remaining <= 0 {
		return
	}
	w.sys.Schedule(delay, func() {
		from := w.cfg.Senders[turn%len(w.cfg.Senders)]
		if _, status := w.sys.Where(from); status != core.StatusConnected {
			// Pass the turn to keep traffic flowing.
			w.scheduleNext(turn+1, remaining, w.cfg.Interval.draw(w.rng))
			return
		}
		if err := w.send(from, w.sent); err != nil {
			w.errs++
			w.scheduleNext(turn+1, remaining, w.cfg.Interval.draw(w.rng))
			return
		}
		w.sent++
		w.scheduleNext(turn+1, remaining-1, w.cfg.Interval.draw(w.rng))
	})
}

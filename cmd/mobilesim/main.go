// Command mobilesim runs one algorithm of the library on a synthetic
// two-tier mobile network and prints the resulting cost report.
//
// Usage:
//
//	mobilesim -alg l2 -m 8 -n 32 -requests 2 -moves 3
//	mobilesim -alg r2c -m 6 -n 30 -requests 1 -traversals 4
//	mobilesim -alg group-lv -m 10 -n 20 -group 10 -messages 20 -moves 2
//	mobilesim -alg proxy-home -m 6 -n 6 -moves 5
//
// Algorithms: l1, l2 (Lamport mutual exclusion on MHs / MSSs); r1, r2,
// r2c, r2l (token ring on MHs / MSSs plain, counter, list); group-ps,
// group-ai, group-lv (group communication strategies); multicast
// (exactly-once ordered feed); proxy-home, proxy-local (static Lamport
// mutex under the proxy framework).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mobiledist"
	"mobiledist/internal/obs"
)

type options struct {
	alg        string
	m, n       int
	seed       uint64
	requests   int
	moves      int
	hold       int64
	traversals int64
	groupSize  int
	messages   int
	churn      int
	trace      bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobilesim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobilesim", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.alg, "alg", "l2", "algorithm: l1|l2|r1|r2|r2c|r2l|group-ps|group-ai|group-lv|multicast|proxy-home|proxy-local")
	fs.IntVar(&o.m, "m", 8, "number of support stations (M)")
	fs.IntVar(&o.n, "n", 32, "number of mobile hosts (N)")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.requests, "requests", 1, "critical-section requests per MH")
	fs.IntVar(&o.moves, "moves", 0, "cell switches per MH")
	fs.Int64Var(&o.hold, "hold", 10, "critical-section hold time (ticks)")
	fs.Int64Var(&o.traversals, "traversals", 2, "ring traversals before the token parks")
	fs.IntVar(&o.groupSize, "group", 8, "group size for group-* algorithms")
	fs.IntVar(&o.messages, "messages", 10, "group messages for group-* algorithms")
	fs.IntVar(&o.churn, "churn", 0, "disconnect/reconnect cycles per MH")
	fs.BoolVar(&o.trace, "trace", false, "print the mobility, search and delivery-failure events as \"trace <t> <kind> <a> <b> <c>\" lines (operands per kind: internal/obs)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := mobiledist.DefaultConfig(o.m, o.n)
	cfg.Seed = o.seed
	if o.trace {
		// Only the model-level protocol steps: mobility, searches, failures.
		cfg.Obs = mobiledist.NewTracer(0)
		cfg.Obs.EnableOnly(append(obs.MobilityKinds(), obs.EvSearch, obs.EvFailure)...)
	}
	sys, err := mobiledist.NewSystem(cfg)
	if err != nil {
		return err
	}

	summary, err := install(sys, o)
	if err != nil {
		return err
	}
	if o.moves > 0 {
		if _, err := mobiledist.NewMobility(sys, mobiledist.MobilityConfig{
			Interval:   mobiledist.Span{Min: 200, Max: 800},
			MovesPerMH: o.moves,
			Locality:   0.5,
			Start:      50,
		}); err != nil {
			return err
		}
	}
	if o.churn > 0 {
		if _, err := mobiledist.NewChurn(sys, mobiledist.ChurnConfig{
			UpFor:     mobiledist.Span{Min: 500, Max: 2_000},
			DownFor:   mobiledist.Span{Min: 200, Max: 800},
			Cycles:    o.churn,
			KnowsPrev: true,
		}); err != nil {
			return err
		}
	}
	if err := sys.Run(); err != nil {
		return err
	}
	for _, ev := range cfg.Obs.Events() {
		fmt.Fprintln(out, "trace", ev.Line(true))
	}

	fmt.Fprintf(out, "algorithm %s on M=%d MSSs, N=%d MHs (seed %d)\n\n", o.alg, o.m, o.n, o.seed)
	fmt.Fprint(out, sys.Meter().Report(sys.Config().Params))
	stats := sys.Stats()
	fmt.Fprintf(out, "\nmodel: %d searches, %d stale re-routes, %d moves, %d disconnects, %d reconnects\n",
		stats.Searches, stats.StaleReroutes, stats.Moves, stats.Disconnects, stats.Reconnects)
	fmt.Fprintln(out, summary())
	return nil
}

// install wires the selected algorithm into sys and returns a closure
// rendering its post-run summary.
func install(sys *mobiledist.System, o options) (func() string, error) {
	requestAll := func(issue func(mobiledist.MHID) error) error {
		_, err := mobiledist.NewRequests(sys, mobiledist.RequestConfig{
			Interval:      mobiledist.Span{Min: 100, Max: 400},
			RequestsPerMH: o.requests,
			Start:         10,
		}, issue)
		return err
	}

	switch o.alg {
	case "l1":
		l1, err := mobiledist.NewL1(sys, mobiledist.AllMHs(o.n), mobiledist.MutexOptions{Hold: mobiledist.Time(o.hold)})
		if err != nil {
			return nil, err
		}
		if err := requestAll(l1.Request); err != nil {
			return nil, err
		}
		return func() string { return fmt.Sprintf("L1: %d grants", l1.Grants()) }, nil

	case "l2":
		l2 := mobiledist.NewL2(sys, mobiledist.MutexOptions{Hold: mobiledist.Time(o.hold)})
		if err := requestAll(l2.Request); err != nil {
			return nil, err
		}
		return func() string {
			return fmt.Sprintf("L2: %d grants, %d aborted (requester disconnected)", l2.Grants(), l2.FailedGrants())
		}, nil

	case "r1":
		r1, err := mobiledist.NewR1(sys, mobiledist.AllMHs(o.n), mobiledist.RingOptions{Hold: mobiledist.Time(o.hold)}, true, o.traversals)
		if err != nil {
			return nil, err
		}
		if err := requestAll(r1.Request); err != nil {
			return nil, err
		}
		if err := r1.Start(); err != nil {
			return nil, err
		}
		return func() string {
			return fmt.Sprintf("R1: %d grants in %d traversals (%d hops, stalled=%v)",
				r1.Grants(), r1.Traversals(), r1.Hops(), r1.Stalled())
		}, nil

	case "r2", "r2c", "r2l":
		variant := mobiledist.R2Plain
		switch o.alg {
		case "r2c":
			variant = mobiledist.R2Counter
		case "r2l":
			variant = mobiledist.R2List
		}
		r2, err := mobiledist.NewR2(sys, variant, mobiledist.RingOptions{Hold: mobiledist.Time(o.hold)}, o.traversals, nil)
		if err != nil {
			return nil, err
		}
		if err := requestAll(r2.Request); err != nil {
			return nil, err
		}
		sys.Schedule(500, func() {
			if err := r2.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "mobilesim:", err)
			}
		})
		return func() string {
			return fmt.Sprintf("%s: %d grants in %d traversals (per traversal: %v)",
				variant, r2.Grants(), r2.Traversals(), r2.GrantsPerTraversal())
		}, nil

	case "group-ps", "group-ai", "group-lv":
		if o.groupSize > o.n {
			return nil, fmt.Errorf("group size %d exceeds N=%d", o.groupSize, o.n)
		}
		members := mobiledist.AllMHs(o.groupSize)
		var comm mobiledist.GroupComm
		var err error
		switch o.alg {
		case "group-ps":
			comm, err = mobiledist.NewPureSearch(sys, members, mobiledist.GroupOptions{})
		case "group-ai":
			comm, err = mobiledist.NewAlwaysInform(sys, members, mobiledist.GroupOptions{})
		case "group-lv":
			comm, err = mobiledist.NewLocationView(sys, members, mobiledist.LocationViewOptions{
				Coordinator:   mobiledist.MSSID(o.m - 1),
				CombineWindow: 200,
			})
		}
		if err != nil {
			return nil, err
		}
		if _, err := mobiledist.NewTraffic(sys, mobiledist.TrafficConfig{
			Senders:  members,
			Interval: mobiledist.Span{Min: 500, Max: 1_500},
			Messages: o.messages,
			Start:    100,
		}, func(mh mobiledist.MHID, payload any) error { return comm.Send(mh, payload) }); err != nil {
			return nil, err
		}
		return func() string {
			return fmt.Sprintf("%s: %d group messages sent, %d member deliveries", comm.Name(), comm.Sent(), comm.Delivered())
		}, nil

	case "multicast":
		if o.groupSize > o.n {
			return nil, fmt.Errorf("group size %d exceeds N=%d", o.groupSize, o.n)
		}
		members := mobiledist.AllMHs(o.groupSize)
		mc, err := mobiledist.NewMulticast(sys, members, mobiledist.MulticastOptions{
			Sequencer: mobiledist.MSSID(o.m - 1),
		})
		if err != nil {
			return nil, err
		}
		if _, err := mobiledist.NewTraffic(sys, mobiledist.TrafficConfig{
			Senders:  members,
			Interval: mobiledist.Span{Min: 500, Max: 1_500},
			Messages: o.messages,
			Start:    100,
		}, func(mh mobiledist.MHID, payload any) error { return mc.Publish(mh, payload) }); err != nil {
			return nil, err
		}
		return func() string {
			return fmt.Sprintf("multicast: %d items, %d deliveries, %d handoffs, %d rollbacks, %d duplicates filtered",
				mc.Published(), mc.Delivered(), mc.Handoffs(), mc.Rollbacks(), mc.DuplicatesDropped())
		}, nil

	case "proxy-home", "proxy-local":
		scope := mobiledist.ScopeHome
		if o.alg == "proxy-local" {
			scope = mobiledist.ScopeLocal
		}
		sm, err := mobiledist.NewStaticMutex(o.n, mobiledist.StaticMutexOptions{Hold: mobiledist.Time(o.hold)})
		if err != nil {
			return nil, err
		}
		rt, err := mobiledist.NewProxyRuntime(sys, sm, mobiledist.AllMHs(o.n), mobiledist.ProxyOptions{Scope: scope})
		if err != nil {
			return nil, err
		}
		if err := requestAll(func(mh mobiledist.MHID) error {
			return rt.Input(mh, mobiledist.ProxyRequestInput())
		}); err != nil {
			return nil, err
		}
		return func() string {
			return fmt.Sprintf("proxy(%v): %d grants, %d move reports, %d handoffs, %d outputs",
				scope, sm.Grants(), rt.MoveReports(), rt.Handoffs(), rt.Outputs())
		}, nil

	default:
		return nil, fmt.Errorf("unknown algorithm %q", o.alg)
	}
}

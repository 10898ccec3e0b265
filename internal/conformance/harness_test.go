// Package conformance is the cross-substrate test suite of the two-tier
// model: every property here is asserted against ALL four network drivers —
// the deterministic simulator (internal/core on the sim kernel), the live
// goroutine runtime (internal/rt), and the network runtime (internal/netrt
// on loopback sockets) over both its substrates: TCP streams and
// authenticated UDP datagram sessions (internal/dgram) — through one driver
// abstraction. Since all of them bind the same internal/engine, these tests
// pin the substrate adapters: scheduling, FIFO transport, and
// execution-context discipline must not change what the protocol does, only
// when wall-clock-wise it happens.
package conformance

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/faults"
	"mobiledist/internal/netrt"
	"mobiledist/internal/rt"
)

const idleTimeout = 10 * time.Second

// driver abstracts one substrate for scenario scripts. The lifecycle is
// register (build phase) → start → any mix of do/mobility/pause → settle →
// reads → stop.
type driver interface {
	name() string
	// registrar hosts algorithm constructors during the build phase.
	registrar() core.Registrar
	start()
	// do runs fn on the substrate's execution context. Side effects (sends,
	// timers) may still be in flight when it returns.
	do(fn func())
	// pause lets currently in-flight traffic land before the next step.
	pause(t *testing.T)
	// settle drains the network completely.
	settle(t *testing.T)
	move(mh core.MHID, to core.MSSID)
	disconnect(mh core.MHID)
	reconnect(mh core.MHID, at core.MSSID)
	meter() *cost.Meter
	stats() engine.Stats
	// engine returns the shared engine. After start, touch it only inside do.
	engine() *engine.Engine
	// injector returns the fault injector, or nil on a fault-free driver.
	// After start, touch it only inside do.
	injector() *faults.Injector
	stop()
}

// simDriver binds scenarios to the deterministic simulator. Actions inject
// immediately (the kernel is idle between Run calls, so direct engine calls
// are the build-phase/event-context calling convention); settle pumps the
// event loop dry.
type simDriver struct {
	sys *core.System
}

func newSimDriver(m, n int) *simDriver {
	return newSimFaultDriver(m, n, nil)
}

// newSimFaultDriver builds a simulator driver running under plan (nil for
// fault-free).
func newSimFaultDriver(m, n int, plan *core.FaultPlan) *simDriver {
	cfg := core.DefaultConfig(m, n)
	cfg.Faults = plan
	return &simDriver{sys: core.MustNewSystem(cfg)}
}

func (d *simDriver) name() string                          { return "sim" }
func (d *simDriver) registrar() core.Registrar             { return d.sys }
func (d *simDriver) start()                                {}
func (d *simDriver) do(fn func())                          { fn() }
func (d *simDriver) move(mh core.MHID, to core.MSSID)      { _ = d.sys.Move(mh, to) }
func (d *simDriver) disconnect(mh core.MHID)               { _ = d.sys.Disconnect(mh) }
func (d *simDriver) reconnect(mh core.MHID, at core.MSSID) { _ = d.sys.Reconnect(mh, at, true) }
func (d *simDriver) meter() *cost.Meter                    { return d.sys.Meter() }
func (d *simDriver) stats() engine.Stats                   { return d.sys.Stats() }
func (d *simDriver) engine() *engine.Engine                { return d.sys.Engine() }
func (d *simDriver) injector() *faults.Injector            { return d.sys.Injector() }
func (d *simDriver) stop()                                 {}

func (d *simDriver) pause(t *testing.T) {
	t.Helper()
	if err := d.sys.RunUntil(d.sys.Now() + 200); err != nil {
		t.Fatalf("sim pause: %v", err)
	}
}

func (d *simDriver) settle(t *testing.T) {
	t.Helper()
	if err := d.sys.Run(); err != nil {
		t.Fatalf("sim settle: %v", err)
	}
}

// liveDriver binds scenarios to the goroutine runtime.
type liveDriver struct {
	sys *rt.System
}

func newLiveDriver(t *testing.T, m, n int) *liveDriver {
	t.Helper()
	return newLiveFaultDriver(t, m, n, nil)
}

// newLiveFaultDriver builds a live driver running under plan (nil for
// fault-free).
func newLiveFaultDriver(t *testing.T, m, n int, plan *core.FaultPlan) *liveDriver {
	t.Helper()
	cfg := rt.DefaultConfig(m, n)
	cfg.Faults = plan
	sys, err := rt.NewSystem(cfg)
	if err != nil {
		t.Fatalf("rt.NewSystem: %v", err)
	}
	return &liveDriver{sys: sys}
}

func (d *liveDriver) name() string                          { return "live" }
func (d *liveDriver) registrar() core.Registrar             { return d.sys }
func (d *liveDriver) start()                                { d.sys.Start() }
func (d *liveDriver) do(fn func())                          { d.sys.Do(fn) }
func (d *liveDriver) move(mh core.MHID, to core.MSSID)      { d.sys.Move(mh, to) }
func (d *liveDriver) disconnect(mh core.MHID)               { d.sys.Disconnect(mh) }
func (d *liveDriver) reconnect(mh core.MHID, at core.MSSID) { d.sys.Reconnect(mh, at) }
func (d *liveDriver) meter() *cost.Meter                    { return d.sys.Meter() }
func (d *liveDriver) stats() engine.Stats                   { return d.sys.Stats() }
func (d *liveDriver) engine() *engine.Engine                { return d.sys.Engine() }
func (d *liveDriver) injector() *faults.Injector            { return d.sys.Injector() }
func (d *liveDriver) stop()                                 { d.sys.Stop() }

func (d *liveDriver) pause(t *testing.T) {
	t.Helper()
	if !d.sys.WaitIdle(idleTimeout) {
		t.Fatal("live pause: network did not drain")
	}
}

func (d *liveDriver) settle(t *testing.T) {
	t.Helper()
	if !d.sys.WaitIdle(idleTimeout) {
		t.Fatal("live settle: network did not drain")
	}
}

// netDriver binds scenarios to the socket-backed network runtime: a full
// loopback cluster (hub + M relay nodes + N MH clients) whose traffic
// crosses real sockets — TCP streams or authenticated UDP datagram
// sessions, per the transport field. Same engine, real links.
type netDriver struct {
	t         *testing.T
	lb        *netrt.Loopback
	transport string
}

func newNetDriver(t *testing.T, m, n int) *netDriver {
	t.Helper()
	return newNetFaultDriver(t, m, n, nil)
}

// newNetFaultDriver builds a loopback-cluster driver running under plan
// (nil for fault-free) on the TCP substrate.
func newNetFaultDriver(t *testing.T, m, n int, plan *core.FaultPlan) *netDriver {
	t.Helper()
	return newNetTransportDriver(t, m, n, plan, netrt.TransportTCP)
}

// newNetTransportDriver builds a loopback-cluster driver on the named
// socket substrate ("tcp" or "udp").
func newNetTransportDriver(t *testing.T, m, n int, plan *core.FaultPlan, transport string) *netDriver {
	t.Helper()
	cfg := netrt.DefaultConfig(m, n)
	cfg.Faults = plan
	cfg.Transport = transport
	lb, err := netrt.StartLoopback(cfg)
	if err != nil {
		t.Fatalf("netrt.StartLoopback(%s): %v", transport, err)
	}
	return &netDriver{t: t, lb: lb, transport: transport}
}

func (d *netDriver) name() string {
	if d.transport == netrt.TransportUDP {
		return "netudp"
	}
	return "net"
}
func (d *netDriver) registrar() core.Registrar { return d.lb.Sys }

func (d *netDriver) start() {
	d.lb.Sys.Start()
	if !d.lb.Sys.WaitReady(idleTimeout) {
		d.t.Fatal("net start: cluster did not become ready")
	}
}

func (d *netDriver) do(fn func())                          { d.lb.Sys.Do(fn) }
func (d *netDriver) move(mh core.MHID, to core.MSSID)      { d.lb.Sys.Move(mh, to) }
func (d *netDriver) disconnect(mh core.MHID)               { d.lb.Sys.Disconnect(mh) }
func (d *netDriver) reconnect(mh core.MHID, at core.MSSID) { d.lb.Sys.Reconnect(mh, at) }
func (d *netDriver) meter() *cost.Meter                    { return d.lb.Sys.Meter() }
func (d *netDriver) stats() engine.Stats                   { return d.lb.Sys.Stats() }
func (d *netDriver) engine() *engine.Engine                { return d.lb.Sys.Engine() }
func (d *netDriver) injector() *faults.Injector            { return d.lb.Sys.Injector() }
func (d *netDriver) stop()                                 { d.lb.Stop() }

func (d *netDriver) pause(t *testing.T) {
	t.Helper()
	if !d.lb.Sys.WaitIdle(idleTimeout) {
		t.Fatalf("net pause: network did not drain\n%s", undrained(d.lb.Sys))
	}
}

func (d *netDriver) settle(t *testing.T) {
	t.Helper()
	if !d.lb.Sys.WaitIdle(idleTimeout) {
		t.Fatalf("net settle: network did not drain\n%s", undrained(d.lb.Sys))
	}
}

// undrained says what a socket cluster that failed to drain still holds,
// and where: the hub's /status document (per-peer liveness state and outbox
// depth from PeerHealth, plus the pending- and parked-record counters) and
// the engine's live record count, read on the executor. The read is bounded
// so a wedged executor is reported instead of hanging the failure message.
func undrained(sys *netrt.System) string {
	status := httptest.NewRecorder()
	sys.HealthHandler().ServeHTTP(status, httptest.NewRequest("GET", "/status", nil))
	live := "unknown: the executor did not answer within 2s"
	got := make(chan int, 1)
	go sys.Do(func() { got <- sys.Engine().LiveRecs() })
	select {
	case n := <-got:
		live = fmt.Sprint(n)
	case <-time.After(2 * time.Second):
	}
	return fmt.Sprintf("engine live records: %s\nhub /status: %s", live, status.Body)
}

// forEachSubstrate runs scenario once per substrate as a subtest.
func forEachSubstrate(t *testing.T, m, n int, scenario func(t *testing.T, d driver)) {
	forEachSubstrateFaults(t, m, n, nil, scenario)
}

// forEachSubstrateFaults runs scenario once per substrate under the given
// fault plan (nil for fault-free).
func forEachSubstrateFaults(t *testing.T, m, n int, plan *core.FaultPlan, scenario func(t *testing.T, d driver)) {
	t.Run("sim", func(t *testing.T) {
		d := newSimFaultDriver(m, n, plan)
		defer d.stop()
		scenario(t, d)
	})
	t.Run("live", func(t *testing.T) {
		d := newLiveFaultDriver(t, m, n, plan)
		defer d.stop()
		scenario(t, d)
	})
	t.Run("net", func(t *testing.T) {
		d := newNetFaultDriver(t, m, n, plan)
		defer d.stop()
		scenario(t, d)
	})
	t.Run("netudp", func(t *testing.T) {
		d := newNetTransportDriver(t, m, n, plan, netrt.TransportUDP)
		defer d.stop()
		scenario(t, d)
	})
}

func mhRange(n int) []core.MHID {
	ids := make([]core.MHID, n)
	for i := range ids {
		ids[i] = core.MHID(i)
	}
	return ids
}

package conformance

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/group"
	"mobiledist/internal/mutex/ring"
)

// Cost parity: the same protocol scenario executed on the deterministic
// simulator, on the live goroutine runtime, and on the TCP-backed network
// runtime must charge exactly the same algorithm message counts — the cost
// model depends on what is sent, never on timing or transport. (Moved here
// from internal/rt when the conformance suite became cross-substrate.)

func assertSameAlgorithmCounts(t *testing.T, sim, live, net *cost.Meter) {
	t.Helper()
	for _, kind := range cost.Kinds() {
		s := sim.Count(cost.CatAlgorithm, kind)
		l := live.Count(cost.CatAlgorithm, kind)
		n := net.Count(cost.CatAlgorithm, kind)
		if s != l || s != n {
			t.Errorf("%v messages: sim %d vs live %d vs net %d", kind, s, l, n)
		}
	}
}

func meterR2(t *testing.T, d driver, k int) *cost.Meter {
	t.Helper()
	r2, err := ring.NewR2(d.registrar(), ring.VariantCounter, ring.Options{Hold: 2}, 2, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	d.start()
	d.do(func() {
		for i := 0; i < k; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
	})
	d.pause(t) // let requests reach their stations before the token starts
	d.do(func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	d.settle(t)
	return d.meter()
}

func TestConformanceR2CostParity(t *testing.T) {
	const (
		m = 5
		n = 10
		k = 4
	)
	simD := newSimDriver(m, n)
	defer simD.stop()
	liveD := newLiveDriver(t, m, n)
	defer liveD.stop()
	netD := newNetDriver(t, m, n)
	defer netD.stop()
	assertSameAlgorithmCounts(t, meterR2(t, simD, k), meterR2(t, liveD, k), meterR2(t, netD, k))
}

func meterLocationView(t *testing.T, d driver, m, g int) *cost.Meter {
	t.Helper()
	lv, err := group.NewLocationView(d.registrar(), core.AllMHs(g), group.LocationViewOptions{Coordinator: core.MSSID(m - 1)})
	if err != nil {
		t.Fatalf("NewLocationView: %v", err)
	}
	d.start()
	d.do(func() {
		if err := lv.Send(core.MHID(0), "x"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	d.settle(t)
	return d.meter()
}

func TestConformanceLocationViewCostParity(t *testing.T) {
	const (
		m = 5
		n = 10
		g = 6
	)
	simD := newSimDriver(m, n)
	defer simD.stop()
	liveD := newLiveDriver(t, m, n)
	defer liveD.stop()
	netD := newNetDriver(t, m, n)
	defer netD.stop()
	assertSameAlgorithmCounts(t,
		meterLocationView(t, simD, m, g),
		meterLocationView(t, liveD, m, g),
		meterLocationView(t, netD, m, g))
}

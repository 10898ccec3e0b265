package conformance

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/netrt"
	"mobiledist/internal/proxy"
	"mobiledist/internal/rt"
)

// liveSystem is the lifecycle surface rt.System and netrt.System both get
// from the shared rt.Host (plus each driver's own Stop).
type liveSystem interface {
	core.Registrar
	Start()
	Do(fn func())
	WaitIdle(timeout time.Duration) bool
	Stop()
	SetDoze(mh core.MHID, dozing bool)
	IsDozing(mh core.MHID) bool
	Stats() engine.Stats
	Searches() int64
}

// TestLiveLifecycle pins the shutdown contract of the one live shell on
// both drivers that embed it: the rows fail on any driver that grows its
// own copy of Stop/AfterRec again and forgets one of the guards.
func TestLiveLifecycle(t *testing.T) {
	drivers := []struct {
		name string
		// build returns an unstarted system and the teardown that releases
		// everything around it (for netrt: the loopback nodes and clients).
		build func(t *testing.T) (sys liveSystem, teardown func())
	}{
		{"rt", func(t *testing.T) (liveSystem, func()) {
			sys, err := rt.NewSystem(rt.DefaultConfig(2, 2))
			if err != nil {
				t.Fatalf("rt.NewSystem: %v", err)
			}
			return sys, sys.Stop
		}},
		{"netrt", func(t *testing.T) (liveSystem, func()) {
			lb, err := netrt.StartLoopback(netrt.DefaultConfig(2, 2))
			if err != nil {
				t.Fatalf("netrt.StartLoopback: %v", err)
			}
			return lb.Sys, lb.Stop
		}},
	}
	for _, d := range drivers {
		t.Run(d.name+"/stop twice is a no-op", func(t *testing.T) {
			sys, teardown := d.build(t)
			sys.Start()
			sys.Stop()
			sys.Stop()
			teardown()
		})
		t.Run(d.name+"/stop before start leaves no goroutine", func(t *testing.T) {
			before := runtime.NumGoroutine()
			sys, teardown := d.build(t)
			sys.Stop()
			teardown()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before build, %d after Stop:\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
		t.Run(d.name+"/timer firing after stop resolves its op", func(t *testing.T) {
			sys, teardown := d.build(t)
			defer teardown()
			ctx := sys.Register(&probe{})
			sys.Start()
			// 2000 ticks of 50µs: armed now, fires 100ms from now — after Stop
			// unless the machine is badly overloaded, in which case the op
			// resolves the ordinary way and the row passes trivially.
			sys.Do(func() { ctx.After(2000, timerTick{}) })
			sys.Stop()
			if !sys.WaitIdle(5 * time.Second) {
				t.Fatal("a timer that fired after Stop left its in-flight op open")
			}
		})
		t.Run(d.name+"/stats after stop", func(t *testing.T) {
			sys, teardown := d.build(t)
			defer teardown()
			ctx := sys.Register(&probe{})
			sys.Start()
			sys.Do(func() { ctx.SendToMH(0, 1, "x", cost.CatAlgorithm) })
			if !sys.WaitIdle(idleTimeout) {
				t.Fatal("network did not drain")
			}
			want := sys.Stats()
			if want.Searches == 0 {
				t.Fatal("a routed send searched nothing; the row reads no counter")
			}
			sys.Stop()
			// Like Meter, the counters stay readable once the executor is gone.
			if got := sys.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("Stats after Stop = %+v, want %+v", got, want)
			}
			if got := sys.Searches(); got != want.Searches {
				t.Errorf("Searches after Stop = %d, want %d", got, want.Searches)
			}
		})
		t.Run(d.name+"/doze", func(t *testing.T) {
			sys, teardown := d.build(t)
			defer teardown()
			sys.SetDoze(1, true)
			if !sys.IsDozing(1) || sys.IsDozing(0) {
				t.Errorf("IsDozing = (mh0 %v, mh1 %v) after SetDoze(1, true)", sys.IsDozing(0), sys.IsDozing(1))
			}
			sys.SetDoze(1, false)
			if sys.IsDozing(1) {
				t.Error("mh1 still dozing after SetDoze(1, false)")
			}
		})
	}
}

// TestLiveSystemMethodSets pins the exported method sets of both live
// drivers, and so of mobiledist.LiveSystem. The Substrate methods (AfterRec,
// BindRecSink, RNG, TransmitRec) and the transport's reach into the host
// (StepRec, Tasks, Stopped) touch the executor-only record pool, so they
// live on rt's unexported adapter and on the rt.Driver that NewHost returns
// to the driver alone; none of them may be promoted into a System again.
// The proxy runtime's Env is checked with them: a static algorithm's timer
// is a message too, so no Env method takes a func.
func TestLiveSystemMethodSets(t *testing.T) {
	host := []string{"Config", "Disconnect", "Do", "Engine", "Injector", "IsDozing", "Meter", "MetricsHandler", "Move", "Now", "Reconnect", "Register", "Searches", "SetDoze", "Start", "Stats", "Stop", "Tracer", "WaitIdle", "Where"}
	hub := append(append([]string(nil), host...), "Addr", "HealthHandler", "ParkedOnDead", "PeerHealth", "PeerStateOf", "SetAdvertise", "Transport", "WaitReady")
	sort.Strings(hub)
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*rt.System)(nil)), host},
		{reflect.TypeOf((*netrt.System)(nil)), hub},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			got = append(got, c.typ.Method(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v methods = %v, want exactly %v", c.typ, got, c.want)
		}
		for _, seam := range []string{"AfterRec", "BindRecSink", "StepRec", "TransmitRec", "RNG", "Tasks", "Stopped"} {
			if _, ok := c.typ.MethodByName(seam); ok {
				t.Errorf("%v exports %s: the driver seam must stay off the public API", c.typ, seam)
			}
		}
	}
	env := reflect.TypeOf((*proxy.Env)(nil)).Elem()
	for i := 0; i < env.NumMethod(); i++ {
		m := env.Method(i)
		for j := 0; j < m.Type.NumIn(); j++ {
			if m.Type.In(j).Kind() == reflect.Func {
				t.Errorf("proxy.Env.%s takes a func parameter (%v): a timer is a message (After(d, p, msg))", m.Name, m.Type.In(j))
			}
		}
	}
}

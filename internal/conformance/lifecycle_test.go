package conformance

import (
	"runtime"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/netrt"
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
			sys.Do(func() { ctx.After(2000, func() {}) })
			sys.Stop()
			if !sys.WaitIdle(5 * time.Second) {
				t.Fatal("a timer that fired after Stop left its in-flight op open")
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

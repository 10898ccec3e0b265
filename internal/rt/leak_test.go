package rt

import (
	"runtime"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/mutex/ring"
)

// TestStopLeaksNoGoroutines audits System.Stop the way the netrt suite
// audits its shutdown: the goroutine count must return to the pre-Start
// baseline. The hard case is stopping mid-flight — the due queue full, its
// timer armed, a token ring still circulating, mobility churn outstanding —
// where Stop must abandon the queue and stop the timer rather than leave a
// wake-up behind.
func TestStopLeaksNoGoroutines(t *testing.T) {
	const m, n = 4, 8
	before := runtime.NumGoroutine()

	// Mid-flight stop: a long-lived token ring plus mobility churn, no
	// WaitIdle — Stop races live traffic.
	sys, err := NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	r2, err := ring.NewR2(sys, ring.VariantCounter, ring.Options{Hold: 1}, 1024, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	sys.Start()
	sys.Do(func() {
		for i := 0; i < n; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	for i := 0; i < m; i++ {
		sys.Move(core.MHID(i), core.MSSID((i+1)%m))
	}
	sys.Stop()
	assertNoGoroutineLeak(t, before)

	// Idle stop: the clean path must also release everything.
	sys, err = NewSystem(DefaultConfig(m, n))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sys.Start()
	sys.Move(0, 1)
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("WaitIdle timed out")
	}
	sys.Stop()
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak retries (a timer callback may still be exiting)
// until the goroutine count returns to the baseline or a deadline passes,
// then dumps all stacks on failure.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutine leak: %d before, %d after Stop\n%s", baseline, now, buf)
}

package rt

import (
	"testing"
	"time"

	"mobiledist/internal/sim"
)

// TestDueTimerArmsOnlyForAFutureDue pins the decision a link pipe makes per
// frame: a due time that has passed returns at once and never touches the
// timer; a due time ahead arms the pipe's one timer, which later waits
// reuse; a closed stop channel wins over a pending wait.
func TestDueTimerArmsOnlyForAFutureDue(t *testing.T) {
	var d DueTimer
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		if !d.Wait(time.Now().Add(-time.Duration(i)*time.Millisecond), stop) {
			t.Fatal("Wait on a passed due time reported stop")
		}
	}
	if d.t != nil {
		t.Fatal("a passed due time armed a timer")
	}

	due := time.Now().Add(2 * time.Millisecond)
	if !d.Wait(due, stop) {
		t.Fatal("Wait on a future due time reported stop")
	}
	if time.Now().Before(due) {
		t.Error("Wait returned before the due time")
	}
	first := d.t
	if first == nil {
		t.Fatal("a future due time armed no timer")
	}
	if !d.Wait(time.Now().Add(time.Millisecond), stop) || d.t != first {
		t.Error("second wait did not reuse the pipe's timer")
	}

	close(stop)
	if d.Wait(time.Now().Add(time.Hour), stop) {
		t.Error("Wait ignored a closed stop channel")
	}
}

// transmitAll puts one timer record per latency on channel ch, from the
// executor, and returns the order in which they landed and the wall time
// from the first put to the last landing.
func transmitAll(t *testing.T, sys *System, ch int, latencies []sim.Time) ([]int, time.Duration) {
	t.Helper()
	var order []int
	var start, last time.Time
	sys.Do(func() {
		start = time.Now()
		for i, l := range latencies {
			sys.TransmitRec(ch, l, sys.Engine().TimerRec(func() {
				order = append(order, i)
				last = time.Now()
			}))
		}
	})
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("pipe did not drain")
	}
	var got []int
	var took time.Duration
	sys.Do(func() { got, took = append(got, order...), last.Sub(start) })
	return got, took
}

func startTicking(t *testing.T, tick time.Duration) *System {
	t.Helper()
	cfg := DefaultConfig(2, 2)
	cfg.Tick = tick
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

// TestPipeKeepsPutOrderAcrossLatencies: a frame with a short latency queued
// behind one with a long latency is due first, and must still leave second.
func TestPipeKeepsPutOrderAcrossLatencies(t *testing.T) {
	sys := startTicking(t, time.Millisecond)
	order, _ := transmitAll(t, sys, 0, []sim.Time{4, 1, 1})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("landing order %v, want [0 1 2] (per-channel FIFO)", order)
	}
}

// TestPipeOverlapsLatencies: k frames of latency L entering a pipe together
// are all due at about the same instant, so the pipe drains in about L —
// not k × L, which is what sleeping each frame's latency in turn cost.
func TestPipeOverlapsLatencies(t *testing.T) {
	const (
		k    = 8
		tick = 5 * time.Millisecond
		lat  = 4
		l    = lat * tick
	)
	sys := startTicking(t, tick)
	latencies := make([]sim.Time, k)
	for i := range latencies {
		latencies[i] = lat
	}
	order, took := transmitAll(t, sys, 1, latencies)
	if len(order) != k {
		t.Fatalf("%d of %d frames landed", len(order), k)
	}
	if took < l {
		t.Errorf("pipe drained in %v, before the link latency %v", took, l)
	}
	if took > k*l/2 {
		t.Errorf("pipe of %d frames drained in %v: latencies are serialised (one latency is %v, %d in turn %v)", k, took, l, k, k*l)
	}
}

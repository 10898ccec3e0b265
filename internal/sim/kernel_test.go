package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []Time
	for _, d := range []Time{30, 10, 20, 10, 0} {
		d := d
		k.Schedule(d, func() { order = append(order, d) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{0, 10, 10, 20, 30}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelStableTieBreak(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events reordered: position %d has %d", i, got)
		}
	}
}

func TestKernelClockAdvances(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	k.Schedule(7, func() {
		at = append(at, k.Now())
		k.Schedule(3, func() { at = append(at, k.Now()) })
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(at) != 2 || at[0] != 7 || at[1] != 10 {
		t.Errorf("event times = %v, want [7 10]", at)
	}
	if k.Now() != 10 {
		t.Errorf("final time = %d, want 10", k.Now())
	}
}

func TestKernelNegativeDelayRejected(t *testing.T) {
	k := NewKernel(1)
	if err := k.ScheduleErr(-1, func() {}); !errors.Is(err, ErrNegativeDelay) {
		t.Errorf("ScheduleErr(-1) = %v, want ErrNegativeDelay", err)
	}
	if err := k.ScheduleErr(0, nil); err == nil {
		t.Error("nil function accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("Schedule(-1) did not panic")
		}
	}()
	k.Schedule(-1, func() {})
}

func TestKernelScheduleAtPast(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10, func() {
		if err := k.ScheduleCallAtKeyed(0, 5, runFn, func() {}); !errors.Is(err, ErrNegativeDelay) {
			t.Errorf("ScheduleCallAtKeyed(past) = %v, want ErrNegativeDelay", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := k.RunUntil(12); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if k.Now() != 12 {
		t.Errorf("clock = %d, want 12", k.Now())
	}
	if k.Pending() != 2 {
		t.Errorf("pending = %d, want 2", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 4 {
		t.Errorf("fired = %v, want 4 events", fired)
	}
}

func TestKernelStepLimit(t *testing.T) {
	k := NewKernel(1)
	k.SetStepLimit(10)
	var reschedule func()
	reschedule = func() { k.Schedule(1, reschedule) }
	k.Schedule(1, reschedule)
	if err := k.Run(); err == nil {
		t.Error("runaway event loop not detected")
	}
	if k.Steps() != 10 {
		t.Errorf("steps = %d, want 10", k.Steps())
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed uint64) []Time {
		k := NewKernel(seed)
		var events []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			events = append(events, k.Now())
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				d := Time(k.RNG().Intn(100))
				k.Schedule(d, func() { spawn(depth - 1) })
			}
		}
		k.Schedule(0, func() { spawn(4) })
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return events
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at %d vs %d", i, a[i], b[i])
		}
	}
	c := run(100)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

func TestKernelTimeMonotonic(t *testing.T) {
	// Property: regardless of the random delays scheduled, observed event
	// times never decrease.
	check := func(seed uint64, delays []uint8) bool {
		k := NewKernel(seed)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			k.Schedule(Time(d), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministicAndForkIndependent(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	r := NewRNG(7)
	fork := r.Fork()
	x := fork.Uint64()
	y := r.Uint64()
	if x == y {
		t.Error("fork mirrors parent stream")
	}
}

func TestRNGBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		if v := r.Duration(5, 9); v < 5 || v > 9 {
			t.Fatalf("Duration(5,9) = %d", v)
		}
	}
	if v := r.Duration(4, 4); v != 4 {
		t.Errorf("Duration(4,4) = %d", v)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(20)
	seen := make(map[int]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 20 {
		t.Fatalf("permutation incomplete: %v", p)
	}
}

func TestRNGPanicsOnBadBounds(t *testing.T) {
	r := NewRNG(1)
	for name, fn := range map[string]func(){
		"Intn(0)":        func() { r.Intn(0) },
		"Int63n(-1)":     func() { r.Int63n(-1) },
		"Duration(5, 1)": func() { r.Duration(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRNGDistributionRoughlyUniform(t *testing.T) {
	// Property check rather than a rigorous statistical test: each bucket
	// of Intn(10) over 10k draws should land within a generous band.
	r := NewRNG(123)
	counts := make([]int, 10)
	const draws = 10_000
	for i := 0; i < draws; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if c < draws/10-300 || c > draws/10+300 {
			t.Errorf("bucket %d has %d draws, expected ~%d", b, c, draws/10)
		}
	}
}

package sim

import (
	"testing"
)

// twin drives a wheel kernel and a sharded kernel through the same call
// sequence and records each one's fire order.
type twin struct {
	single, sharded *Kernel
	fs, fd          []int
}

func newTwin(seed uint64, shards int) *twin {
	return &twin{single: NewKernel(seed), sharded: NewShardedKernel(seed, shards)}
}

func (w *twin) schedule(key int, delay Time, id int) {
	w.single.ScheduleKeyed(key, delay, func() { w.fs = append(w.fs, id) })
	w.sharded.ScheduleKeyed(key, delay, func() { w.fd = append(w.fd, id) })
}

func (w *twin) compare(t *testing.T) {
	t.Helper()
	if len(w.fs) != len(w.fd) {
		t.Fatalf("fired %d events on the wheel, %d sharded", len(w.fs), len(w.fd))
	}
	for i := range w.fs {
		if w.fs[i] != w.fd[i] {
			t.Fatalf("pop order diverged at %d: wheel fired %d, sharded %d", i, w.fs[i], w.fd[i])
		}
	}
	if w.single.Now() != w.sharded.Now() {
		t.Fatalf("clocks diverged: wheel %d, sharded %d", w.single.Now(), w.sharded.Now())
	}
	if w.single.Pending() != w.sharded.Pending() {
		t.Fatalf("pending diverged: wheel %d, sharded %d", w.single.Pending(), w.sharded.Pending())
	}
}

// TestShardedKernelMatchesSingleHeap pins the determinism contract on a
// long mixed workload: keyed schedules across many shards, colliding
// timestamps, zero delays, and re-entrant scheduling from inside events.
func TestShardedKernelMatchesSingleHeap(t *testing.T) {
	for _, shards := range []int{2, 8, 64} {
		w := newTwin(1, shards)
		rng := NewRNG(42)
		// Drive both kernels with identical structure. Nested closures need
		// matching ids on both sides, so generate the plan first.
		type op struct {
			key   int
			delay Time
		}
		var plan []op
		for i := 0; i < 2000; i++ {
			plan = append(plan, op{key: rng.Intn(1 << 20), delay: Time(rng.Intn(50))})
		}
		var build func(k *Kernel, fired *[]int)
		build = func(k *Kernel, fired *[]int) {
			n := 0
			var fn func(o op, depth int) func()
			fn = func(o op, depth int) func() {
				myID := n
				n++
				return func() {
					*fired = append(*fired, myID)
					if depth > 0 {
						k.ScheduleKeyed(o.key*7+depth, Time(depth%3), fn(op{key: o.key + depth, delay: o.delay}, depth-1))
					}
				}
			}
			for _, o := range plan {
				k.ScheduleKeyed(o.key, o.delay, fn(o, int(o.delay)%4))
			}
		}
		build(w.single, &w.fs)
		build(w.sharded, &w.fd)
		// Interleave RunUntil with full Run to cover clock-advance paths.
		if err := w.single.RunUntil(25); err != nil {
			t.Fatal(err)
		}
		if err := w.sharded.RunUntil(25); err != nil {
			t.Fatal(err)
		}
		w.compare(t)
		if err := w.single.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.sharded.Run(); err != nil {
			t.Fatal(err)
		}
		w.compare(t)
		if w.sharded.Pending() != 0 {
			t.Fatalf("sharded kernel left %d events pending", w.sharded.Pending())
		}
	}
}

// TestShardedKernelBasics covers the small-surface behaviors: shard count
// reporting, negative delays, nil functions, and ScheduleCallAtKeyed.
func TestShardedKernelBasics(t *testing.T) {
	k := NewShardedKernel(1, 5) // rounds up to 8
	if got := k.Shards(); got != 8 {
		t.Errorf("Shards() = %d, want 8", got)
	}
	if got := NewKernel(1).Shards(); got != 1 {
		t.Errorf("wheel Shards() = %d, want 1", got)
	}
	if got := NewShardedKernel(1, 1).Shards(); got != 1 {
		t.Errorf("NewShardedKernel(_, 1).Shards() = %d, want 1", got)
	}
	if err := k.ScheduleKeyedErr(3, -1, func() {}); err != ErrNegativeDelay {
		t.Errorf("negative delay error = %v", err)
	}
	if err := k.ScheduleKeyedErr(3, 1, nil); err == nil {
		t.Error("nil fn accepted")
	}
	if err := k.ScheduleCallAtKeyed(9, 10, runFn, func() {}); err != nil {
		t.Errorf("ScheduleCallAtKeyed: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 {
		t.Errorf("Now() = %d, want 10", k.Now())
	}
	if err := k.ScheduleCallAtKeyed(9, 5, runFn, func() {}); err != ErrNegativeDelay {
		t.Errorf("past ScheduleCallAtKeyed error = %v", err)
	}
}

// TestShardedKernelStepLimit checks the runaway backstop fires on the
// sharded path too.
func TestShardedKernelStepLimit(t *testing.T) {
	k := NewShardedKernel(1, 4)
	k.SetStepLimit(10)
	var churn func()
	churn = func() { k.ScheduleKeyed(1, 1, churn) }
	churn()
	if err := k.Run(); err == nil {
		t.Fatal("step limit not enforced")
	}
	if k.Steps() != 10 {
		t.Errorf("steps = %d, want 10", k.Steps())
	}
}

// TestShardedKernelSteadyStateAllocs proves both kernels schedule and step
// without allocating once warm: the wheel recycles run chunks through its
// free list; the sharded queue recycles buckets, heaps, map cells and the
// now-queue. Two paths per kernel: closures, where the only allocations
// allowed are the test's own, and records — a long-lived invoker and a
// pointer argument, as the engine schedules delivery records — which must
// make none. The record path mixes in far delays, so events also cross from
// the far heap into the wheel, and measures several chunks' worth of events
// per run, so a chunk that is not recycled shows as an allocation.
func TestShardedKernelSteadyStateAllocs(t *testing.T) {
	kernels := []struct {
		name string
		new  func() *Kernel
	}{
		{"wheel", func() *Kernel { return NewKernel(1) }},
		{"sharded", func() *Kernel { return NewShardedKernel(1, 16) }},
	}
	step := func(t *testing.T, k *Kernel, n int) {
		for i := 0; i < n; i++ {
			if !k.Step() {
				t.Fatal("queue drained unexpectedly")
			}
		}
	}
	for _, kc := range kernels {
		t.Run(kc.name+"/closures", func(t *testing.T) {
			k := kc.new()
			rng := NewRNG(7)
			// Standing population across shards and colliding timestamps;
			// warm all internal arenas first.
			var churn func(key int) func()
			churn = func(key int) func() {
				return func() {
					k.ScheduleKeyed(key, Time(rng.Intn(16)+1), churn(key))
				}
			}
			for j := 0; j < 512; j++ {
				k.ScheduleKeyed(j, Time(rng.Intn(16)+1), churn(j))
			}
			step(t, k, 100_000)
			avg := testing.AllocsPerRun(200, func() { step(t, k, 64) })
			// The only allocations on this path are the churn closures
			// themselves (one per rescheduled event, owned by the test).
			// Allow the closure+RNG draw and nothing more.
			if avg > 70 {
				t.Fatalf("steady-state Step allocated %.1f objects per 64 events (want only the test's closures)", avg)
			}
		})
		t.Run(kc.name+"/records", func(t *testing.T) {
			k := kc.new()
			rng := NewRNG(7)
			type rec struct{ key int }
			delay := func() Time {
				if rng.Intn(8) == 0 {
					return wheelSpan + Time(rng.Intn(64))
				}
				return Time(rng.Intn(16) + 1)
			}
			var churn func(any)
			churn = func(a any) {
				r := a.(*rec)
				if err := k.ScheduleCallAtKeyed(r.key, k.Now()+delay(), churn, r); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < 4096; j++ {
				if err := k.ScheduleCallAtKeyed(j, delay(), churn, &rec{key: j}); err != nil {
					t.Fatal(err)
				}
			}
			// The sharded queue's bucket slices take ~5e5 events at this mix
			// to reach their high-water lengths; the wheel is warm far sooner.
			step(t, k, 1_000_000)
			const perRun = 4 * chunkLen
			if avg := testing.AllocsPerRun(100, func() { step(t, k, perRun) }); avg != 0 {
				t.Fatalf("steady-state record path allocated %.1f objects per %d events, want 0", avg, perRun)
			}
		})
	}
}

// FuzzShardedKernelOracle cross-checks the sharded queue against the wheel
// kernel (each the other's oracle) on arbitrary keyed op streams: byte
// triples encode (key, delay, action) where the delay and action bytes are
// read as kernelOp reads them, so delays cross the wheel span, and actions
// interleave scheduling with explicit Steps and RunUntil deadlines.
func FuzzShardedKernelOracle(f *testing.F) {
	f.Add(uint64(1), []byte{1, 10, 0, 2, 0, 1, 3, 30, 0, 0, 0, 2})
	f.Add(uint64(3), []byte{255, 255, 0, 255, 0, 1, 9, 9, 2, 1, 1, 1})
	f.Add(uint64(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	for i, seed := range wheelSeeds {
		var ops []byte
		for j, op := range seed {
			code, lo := opBytes(byte(op[0]), Time(op[1]))
			ops = append(ops, byte(i*7+j), lo, code)
		}
		f.Add(uint64(i), ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		shards := int(seed%63) + 2
		w := newTwin(seed, shards)
		id := 0
		schedule := func(k *Kernel, fired *[]int, key int, delay Time, myID int, reentrant bool) {
			var fn func()
			if reentrant {
				fn = func() {
					*fired = append(*fired, myID)
					k.ScheduleKeyed(key+1, delay/2, func() { *fired = append(*fired, ^myID) })
				}
			} else {
				fn = func() { *fired = append(*fired, myID) }
			}
			k.ScheduleKeyed(key, delay, fn)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			key := int(ops[i])
			switch action, delay := kernelOp(ops[i+2], ops[i+1]); action {
			case opStep:
				s1 := w.single.Step()
				s2 := w.sharded.Step()
				if s1 != s2 {
					t.Fatalf("Step() diverged: wheel %v, sharded %v", s1, s2)
				}
			case opRunUntil:
				if err := w.single.RunUntil(w.single.Now() + delay); err != nil {
					t.Fatal(err)
				}
				if err := w.sharded.RunUntil(w.sharded.Now() + delay); err != nil {
					t.Fatal(err)
				}
			default: // schedule (action 1: with a re-entrant nested event)
				schedule(w.single, &w.fs, key, delay, id, action == 1)
				schedule(w.sharded, &w.fd, key, delay, id, action == 1)
				id++
			}
			w.compare(t)
		}
		if err := w.single.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.sharded.Run(); err != nil {
			t.Fatal(err)
		}
		w.compare(t)
	})
}

package sim

import "testing"

// FuzzKernelSchedule checks that arbitrary interleavings of scheduling
// (including re-entrant scheduling from inside events) preserve time
// monotonicity and run to quiescence.
func FuzzKernelSchedule(f *testing.F) {
	f.Add(uint64(1), []byte{10, 0, 30, 5})
	f.Add(uint64(7), []byte{255, 255, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, delays []byte) {
		k := NewKernel(seed)
		k.SetStepLimit(100_000)
		last := Time(-1)
		var fired int
		for i, d := range delays {
			if i > 100 {
				break
			}
			d := Time(d)
			k.Schedule(d, func() {
				fired++
				if k.Now() < last {
					t.Fatalf("time went backwards: %d after %d", k.Now(), last)
				}
				last = k.Now()
				// Re-entrant scheduling from inside an event.
				if d%3 == 0 {
					k.Schedule(Time(d%7), func() {
						fired++
						if k.Now() < last {
							t.Fatalf("nested time went backwards")
						}
						last = k.Now()
					})
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if k.Pending() != 0 {
			t.Fatalf("pending events after Run: %d", k.Pending())
		}
	})
}

// kernelOp decodes one fuzzer op from an action byte and a low delay byte:
// the action is code%4, and the delay (0..4095 ticks) takes its high bits
// from code>>4, so pushes and RunUntil deadlines land on both sides of the
// wheel span and several spans out.
func kernelOp(code, lo byte) (action byte, delay Time) {
	return code % 4, Time(code>>4)<<8 | Time(lo)
}

// opBytes encodes (action, delay) as kernelOp reads it.
func opBytes(action byte, delay Time) (code, lo byte) {
	return byte(delay>>8)<<4 | action, byte(delay)
}

// Fuzzer op actions.
const (
	opPush     = 0 // 1 is a push too (a re-entrant one in the sharded fuzzer)
	opStep     = 2
	opRunUntil = 3
)

// Seed delays: a near one that moves the clock well inside the span, one
// just past the span, and one past two spans.
const (
	slideDelay  = 100
	farDelay    = wheelSpan + 44
	beyondDelay = 2*wheelSpan + 60
)

// wheelSeeds are op streams, as (action, delay) pairs, that each fail on a
// wheel that moves a far event into its run only when the clock reaches its
// tick: a direct push admitted earlier for that tick would then run first.
var wheelSeeds = [][][2]int{
	// A far event at T; the window slides past T-span on a Step; a near
	// push lands at T.
	{{opPush, farDelay}, {opPush, slideDelay}, {opStep, 0}, {opPush, farDelay - slideDelay}},
	// An empty wheel jumps to the far minimum; the next far event is then
	// inside the window when a near push lands on its tick.
	{{opPush, farDelay}, {opPush, farDelay + slideDelay}, {opStep, 0}, {opPush, slideDelay}},
	// RunUntil fires a far event and stops past it; only the deadline's
	// window slide brings the next far event in before a push lands on it.
	{{opPush, farDelay}, {opPush, beyondDelay}, {opRunUntil, farDelay + 56}, {opPush, beyondDelay - farDelay - 56}},
}

// lookaheadSeeds are op streams for popNear's prefetch window, which reads
// the slot prefetchAhead past the front of the run being drained.
var lookaheadSeeds = func() [][][2]int {
	// One tick holding exactly a chunk, then one holding more: the window
	// reaches the chunk's end with no next chunk, then crosses into the next
	// one and runs off its written end.
	var full [][][2]int
	for _, n := range []int{chunkLen, chunkLen + prefetchAhead + 1} {
		var ops [][2]int
		for i := 0; i < n; i++ {
			ops = append(ops, [2]int{opPush, 5})
		}
		full = append(full, ops)
	}
	// Pops interleaved with pushes onto the tick being drained: the window
	// lies past the last written slot of a half-written tail chunk.
	half := [][2]int{{opPush, 1}, {opPush, 1}, {opStep, 0}}
	for i := 0; i < 2*prefetchAhead; i++ {
		half = append(half, [2]int{opPush, 0}, [2]int{opStep, 0})
	}
	// A run shorter than the prefetch distance.
	short := [][2]int{{opPush, 2}, {opPush, 2}, {opPush, 2}, {opStep, 0}, {opStep, 0}, {opStep, 0}}
	return append(full, half, short)
}()

// FuzzKernelHeapOracle cross-checks the kernel's pop order against a naive
// sorted-slice oracle. The op stream (byte pairs, see kernelOp) interleaves
// pushes of uniquely identified events with Steps and RunUntil deadlines, so
// events cross from the far heap into the wheel at every window slide, and
// every fired event must match the oracle's front exactly — same id, same
// time.
func FuzzKernelHeapOracle(f *testing.F) {
	f.Add([]byte{10, 0, 30, 3, 5, 7, 3, 3})
	f.Add([]byte{255, 3, 255, 3, 0, 0, 3, 3, 3, 3})
	for _, seed := range append(wheelSeeds, lookaheadSeeds...) {
		var ops []byte
		for _, op := range seed {
			code, lo := opBytes(byte(op[0]), Time(op[1]))
			ops = append(ops, code, lo)
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		type oracleEvent struct {
			at Time
			id int
		}
		k := NewKernel(1)
		var oracle []oracleEvent // sorted by (at, insertion order)
		var fired []int
		var now Time
		nextID := 0
		if len(ops) > 400 {
			ops = ops[:400]
		}
		// fire steps the kernel once; it must fire exactly the oracle's front.
		fire := func() {
			want := oracle[0]
			oracle = oracle[1:]
			before := len(fired)
			if !k.Step() {
				t.Fatalf("kernel empty but oracle holds %d events", len(oracle)+1)
			}
			if len(fired) != before+1 || fired[before] != want.id {
				t.Fatalf("pop order diverged: got id %v, want %d", fired[before:], want.id)
			}
			if k.Now() != want.at {
				t.Fatalf("pop time diverged: kernel at %d, oracle at %d", k.Now(), want.at)
			}
			now = want.at
		}
		for i := 0; i+1 < len(ops); i += 2 {
			switch action, delay := kernelOp(ops[i], ops[i+1]); action {
			case opStep:
				if len(oracle) == 0 {
					if k.Step() {
						t.Fatal("kernel fired an event the oracle does not have")
					}
					continue
				}
				fire()
			case opRunUntil:
				// RunUntil must fire exactly the oracle's events due by the
				// deadline, in order, then stand at the deadline.
				deadline := now + delay
				want := 0
				for want < len(oracle) && oracle[want].at <= deadline {
					want++
				}
				before := len(fired)
				if err := k.RunUntil(deadline); err != nil {
					t.Fatal(err)
				}
				if len(fired)-before != want {
					t.Fatalf("RunUntil(%d) fired %d events, oracle holds %d due", deadline, len(fired)-before, want)
				}
				for j, id := range fired[before:] {
					if id != oracle[j].id {
						t.Fatalf("RunUntil(%d) order diverged at %d: got id %d, want %d", deadline, j, id, oracle[j].id)
					}
				}
				oracle = oracle[want:]
				now = deadline
				if k.Now() != now {
					t.Fatalf("RunUntil(%d) left the clock at %d", deadline, k.Now())
				}
			default:
				// Push: schedule at now+delay and insert into the oracle
				// keeping ties in insertion order (the kernel's seq order).
				id := nextID
				nextID++
				at := now + delay
				k.Schedule(delay, func() { fired = append(fired, id) })
				pos := len(oracle)
				for j, ev := range oracle {
					if at < ev.at {
						pos = j
						break
					}
				}
				oracle = append(oracle, oracleEvent{})
				copy(oracle[pos+1:], oracle[pos:])
				oracle[pos] = oracleEvent{at: at, id: id}
			}
			if k.Pending() != len(oracle) {
				t.Fatalf("kernel holds %d events, oracle %d", k.Pending(), len(oracle))
			}
		}
		// Drain: the remaining pops must also match.
		for len(oracle) > 0 {
			fire()
		}
		if k.Step() || k.Pending() != 0 {
			t.Fatalf("kernel holds %d events the oracle does not", k.Pending())
		}
	})
}

// FuzzRNGDuration checks bounds for arbitrary (seed, min, span) inputs.
func FuzzRNGDuration(f *testing.F) {
	f.Add(uint64(1), int64(0), uint8(10))
	f.Add(uint64(99), int64(1000), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, min int64, span uint8) {
		if min < 0 {
			min = -min
		}
		r := NewRNG(seed)
		max := min + int64(span)
		for i := 0; i < 50; i++ {
			v := r.Duration(Time(min), Time(max))
			if v < Time(min) || v > Time(max) {
				t.Fatalf("Duration(%d,%d) = %d", min, max, v)
			}
		}
	})
}

package rt

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// wallOp is one step of the wall-width queue model: a put on key due d
// after the clock (kind putNow), after a stale clock reading back ns ago
// (putStale, as a netrt relay reads its clock before it takes the queue's
// lock), or a clock advance by d followed by a drain (advance).
type wallOp struct {
	kind    int
	key     int
	d, back sim.Time
}

const (
	putNow = iota
	putStale
	advance
)

// wallEntry is a queued payload of the model: its own due time (what a
// queue wider than one unit needs its payload to carry), its key, its put
// number and the clock when it was put.
type wallEntry struct {
	at, putAt sim.Time
	key, id   int
}

// runWallModel drives a sim.Queue at the live substrates' slot width
// through ops, popping only a front whose own due time has passed as
// rt.Host and the netrt relays do, and checks the contract they rely on:
//   - Pop removes the entry Front showed;
//   - after a drain at now, nothing still queued is due a slot width or
//     more before now, counting a put below the cursor as due when it was
//     put (it joins the cursor's slot);
//   - pushes on one key, whose due times the model clamps to be
//     non-decreasing as engine.FIFOClock does, leave in push order.
func runWallModel(t *testing.T, ops []wallOp) {
	t.Helper()
	const width = sim.Time(1) << SlotShift
	var q sim.Queue[wallEntry]
	q.Init(SlotShift)
	var now sim.Time
	last := map[int]sim.Time{} // each key's latest due time
	left := map[int]int{}      // each key's last id out
	queued := map[int]wallEntry{}
	id := 0
	put := func(key int, at sim.Time) {
		at = max(at, last[key])
		last[key] = at
		e := wallEntry{at: at, putAt: now, key: key, id: id}
		id++
		q.Push(at, e)
		queued[e.id] = e
	}
	drain := func() {
		for {
			f := q.Front()
			if f == nil || f.at > now {
				break
			}
			want := f.id
			if e := q.Pop(); e.id != want {
				t.Fatalf("Pop removed put %d, Front showed put %d", e.id, want)
			}
			e := queued[want]
			if p, ok := left[e.key]; ok && e.id < p {
				t.Fatalf("key %d: put %d left after put %d", e.key, e.id, p)
			}
			left[e.key] = e.id
			delete(queued, e.id)
		}
		for _, e := range queued {
			if due := max(e.at, e.putAt); now-due >= width {
				t.Fatalf("put %d due at %d ns still queued at %d ns: more than one %d ns slot late", e.id, due, now, width)
			}
		}
		if q.Len() != len(queued) {
			t.Fatalf("queue holds %d, model %d", q.Len(), len(queued))
		}
	}
	for _, op := range ops {
		switch op.kind {
		case putNow:
			put(op.key, now+op.d)
		case putStale:
			put(op.key, max(0, now-op.back)+op.d)
		case advance:
			now += op.d
			drain()
		}
	}
	for len(queued) > 0 { // the rest, one slot at a time
		now += width
		drain()
	}
}

// decodeWallOps reads a fuzz input as byte pairs (code, arg): code%4 picks
// put-now, put-stale, advance or a far put (put-now beyond the wheel's 256
// slots), code>>2 the key (one of four); arg scales to eighths of a slot, so
// delays land inside one slot, across several and past the window.
func decodeWallOps(b []byte) []wallOp {
	const eighth = sim.Time(1) << SlotShift / 8
	var ops []wallOp
	for i := 0; i+1 < len(b) && len(ops) < 300; i += 2 {
		code, arg := b[i], sim.Time(b[i+1])
		op := wallOp{kind: int(code % 4), key: int(code>>2) % 4, d: arg * eighth}
		switch op.kind {
		case putStale:
			op.back, op.d = arg*eighth, (arg%4)*eighth
		case 3:
			op.kind, op.d = putNow, arg*64*eighth
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzWallQueue holds sim.Queue at the live slot width to the contract
// runWallModel checks. Its first seed is the shape that failed a wheel
// whose cursor moved on a look at the front: a far put at the front (looked
// at by a drain with nothing due), then an earlier put on another key,
// which must not queue behind it.
func FuzzWallQueue(f *testing.F) {
	f.Add([]byte{3, 100, 2, 0, 4, 8, 2, 9, 2, 255, 2, 255})
	f.Add([]byte{0, 30, 4, 1, 2, 40, 5, 200, 0, 2, 2, 1, 2, 255})
	f.Add([]byte{0, 255, 2, 255, 1, 255, 1, 3, 2, 1, 2, 255})
	f.Fuzz(func(t *testing.T, b []byte) { runWallModel(t, decodeWallOps(b)) })
}

// TestWallQueueLatenessBound runs the model on link traffic at two ticks:
// the benchmark's 1 ns, where every put is due at once, and the production
// 50 µs, where latencies of one to four ticks span dozens of slots and a
// few timers lie past the window.
func TestWallQueueLatenessBound(t *testing.T) {
	for _, tick := range []time.Duration{time.Nanosecond, defaultTick} {
		t.Run(tick.String(), func(t *testing.T) {
			rng := sim.NewRNG(11)
			var ops []wallOp
			for i := 0; i < 20000; i++ {
				switch n := rng.Intn(16); {
				case n < 10:
					ops = append(ops, wallOp{kind: putNow, key: rng.Intn(24), d: rng.Duration(1, 4) * sim.Time(tick)})
				case n < 11:
					ops = append(ops, wallOp{kind: putNow, key: rng.Intn(24), d: rng.Duration(20, 200) * sim.Time(tick)})
				case n < 12:
					ops = append(ops, wallOp{kind: putStale, key: rng.Intn(24), back: rng.Duration(0, 5000), d: sim.Time(tick)})
				default:
					ops = append(ops, wallOp{kind: advance, d: rng.Duration(0, 3*sim.Time(tick)+2000)})
				}
			}
			runWallModel(t, ops)
		})
	}
}

// stepProbe is a CrashObserver that hands every crash it hears to on. A
// record from Engine.CrashRec(id, false) is plain data like every record,
// and stepping it calls on(id) on the executor, so the tests put such
// records wherever a record can go and tell them apart by id. Without a
// probe (or with on nil) a crash record lands and does nothing.
type stepProbe struct{ on func(id engine.MSSID) }

func (p *stepProbe) Name() string { return "step-probe" }

func (p *stepProbe) NoteCrash(id engine.MSSID) {
	if p.on != nil {
		p.on(id)
	}
}

// probeRec returns a pooled record whose step calls the probe's on(id).
func probeRec(sys *System, id int) *engine.DeliveryRec {
	return sys.Engine().CrashRec(engine.MSSID(id), false)
}

// transmitAll puts one probe record per latency on channel ch, from the
// executor, and returns the order in which they landed and the wall time
// from the first put to the last landing.
func transmitAll(t *testing.T, sys *System, probe *stepProbe, ch int, latencies []sim.Time) ([]int, time.Duration) {
	t.Helper()
	var order []int
	var start, last time.Time
	probe.on = func(id engine.MSSID) {
		order = append(order, int(id))
		last = time.Now()
	}
	sys.Do(func() {
		start = time.Now()
		for i, l := range latencies {
			sys.transmit(ch, l, probeRec(sys, i))
		}
	})
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("channel did not drain")
	}
	var got []int
	var took time.Duration
	sys.Do(func() { got, took = append(got, order...), last.Sub(start) })
	return got, took
}

// startTicking starts an M=2, N=2 system at the given tick with a step
// probe registered.
func startTicking(t *testing.T, tick time.Duration) (*System, *stepProbe) {
	t.Helper()
	cfg := DefaultConfig(2, 2)
	cfg.Tick = tick
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	probe := &stepProbe{}
	sys.Register(probe)
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys, probe
}

// TestChannelKeepsPutOrderAcrossLatencies: a frame with a short latency
// queued behind one with a long latency on the same channel is clamped to
// its due time, and must still land second.
func TestChannelKeepsPutOrderAcrossLatencies(t *testing.T) {
	sys, probe := startTicking(t, time.Millisecond)
	order, _ := transmitAll(t, sys, probe, 0, []sim.Time{4, 1, 1})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("landing order %v, want [0 1 2] (per-channel FIFO)", order)
	}
}

// TestChannelOverlapsLatencies: k frames of latency L entering a channel
// together are all due at about the same instant, so the channel drains in
// about L — not k × L, which is what sleeping each frame's latency in turn
// cost.
func TestChannelOverlapsLatencies(t *testing.T) {
	const (
		k    = 8
		tick = 5 * time.Millisecond
		lat  = 4
		l    = lat * tick
	)
	sys, probe := startTicking(t, tick)
	latencies := make([]sim.Time, k)
	for i := range latencies {
		latencies[i] = lat
	}
	order, took := transmitAll(t, sys, probe, 1, latencies)
	if len(order) != k {
		t.Fatalf("%d of %d frames landed", len(order), k)
	}
	if took < l {
		t.Errorf("channel drained in %v, before the link latency %v", took, l)
	}
	if took > k*l/2 {
		t.Errorf("channel of %d frames drained in %v: latencies are serialised (one latency is %v, %d in turn %v)", k, took, l, k, k*l)
	}
}

// TestDueQueueKeepsEachChannelFIFO transmits a few hundred pooled records
// with random latencies over 24 channels of all three kinds. Each channel must land in transmit order, no
// record before the due time it was stamped with, and a 1-tick record on one
// channel must overtake a 100-tick record sent just before it on another:
// the queue is one, the channels are not.
func TestDueQueueKeepsEachChannelFIFO(t *testing.T) {
	const (
		tick     = 100 * time.Microsecond
		channels = 24
		records  = 400
	)
	cfg := DefaultConfig(4, 8)
	cfg.Tick = tick
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// Probe record i is the i-th transmit; the probe logs, on the executor,
	// each id as it lands and the due queue's clock then.
	var landed []int
	var at []sim.Time
	sys.Register(&stepProbe{on: func(id engine.MSSID) {
		landed = append(landed, int(id))
		at = append(at, sys.nowNs())
	}})
	sys.Start()
	t.Cleanup(sys.Stop)

	count := engine.ChannelLayout{M: cfg.M, N: cfg.N}.Count()
	chanOf := func(i int) int { return (i % channels) * count / channels }
	rng := sim.NewRNG(7)
	stamp := make([]sim.Time, records)
	sys.Do(func() {
		last := make(map[int]sim.Time)
		for i := 0; i < records; i++ {
			ch, lat := chanOf(i), rng.Duration(1, 30)
			switch i {
			case 0:
				lat = 100
			case 1:
				lat = 1
			}
			rec := probeRec(sys, i)
			before := sys.nowNs()
			sys.transmit(ch, lat, rec)
			stamp[i] = stampOf(sys, rec)
			if floor := before + sim.Time(time.Duration(lat)*tick); stamp[i] < floor || stamp[i] < last[ch] {
				t.Errorf("record %d on channel %d stamped %d ns, want at least %d (latency) and %d (channel's previous)", i, ch, stamp[i], floor, last[ch])
			}
			last[ch] = stamp[i]
		}
	})
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("due queue did not drain")
	}
	sys.Do(func() {
		if len(landed) != records {
			t.Fatalf("%d of %d records landed", len(landed), records)
		}
		prev := make(map[int]int)
		var longAt, shortAt int
		for i, id := range landed {
			ch := chanOf(id)
			if p, ok := prev[ch]; ok && id < p {
				t.Errorf("channel %d landed record %d after %d", ch, id, p)
			}
			prev[ch] = id
			if at[i] < stamp[id] {
				t.Errorf("record %d landed at %d ns, before its due time %d", id, at[i], stamp[id])
			}
			switch id {
			case 0:
				longAt = i
			case 1:
				shortAt = i
			}
		}
		if shortAt > longAt {
			t.Errorf("the 1-tick record landed %d-th, after the 100-tick record sent before it on another channel (%d-th)", shortAt, longAt)
		}
	})
}

// stampOf returns the due time rec waits for in the system's due queue.
func stampOf(sys *System, rec *engine.DeliveryRec) sim.Time {
	at := sim.Time(-1)
	sys.queue.Range(func(d *sim.Due[*engine.DeliveryRec]) {
		if d.V == rec {
			at = d.At
		}
	})
	return at
}

// sinceStart reads the wall clock in the due queue's units, never the
// drain's instant.
func sinceStart(sys *System) sim.Time { return sim.Time(time.Since(*sys.epoch.Load())) }

// TestDrainIsOneInstant: a record stepped inside a drain transmits on a
// channel and arms a timer, with the clock moving on between the two. Both
// are stamped from the reading the drain took to decide what was due — not
// from a fresh one — and that reading is no earlier than the stepped
// record's due time, so the transmit lands no sooner than that due time
// plus its latency. A transmit from Do afterwards reads the clock afresh.
func TestDrainIsOneInstant(t *testing.T) {
	const (
		tick     = time.Millisecond
		lat, d   = 3, 7
		ch       = 2
		sleep    = 5 * tick
		idleWait = 10 * time.Second
	)
	sys, probe := startTicking(t, tick)
	var due, tx, timer, wall sim.Time
	probe.on = func(id engine.MSSID) {
		if id != 1 {
			return
		}
		rec := probeRec(sys, 0)
		sys.transmit(ch, lat, rec)
		tx = stampOf(sys, rec)
		time.Sleep(sleep) // the clock moves on; the drain's instant does not
		rec = probeRec(sys, 0)
		sys.afterRec(d, rec)
		timer = stampOf(sys, rec)
		wall = sinceStart(sys)
	}
	sys.Do(func() {
		stepped := probeRec(sys, 1)
		sys.afterRec(1, stepped)
		due = stampOf(sys, stepped)
	})
	if !sys.WaitIdle(idleWait) {
		t.Fatal("due queue did not drain")
	}
	if a, b := tx-lat*sim.Time(tick), timer-d*sim.Time(tick); a != b {
		t.Errorf("transmit stamped from %d ns, timer from %d ns: a drain's puts must share its one reading", a, b)
	}
	if floor := due + lat*sim.Time(tick); tx < floor {
		t.Errorf("transmit stamped %d ns, before the stepped record's due time plus its latency (%d ns)", tx, floor)
	}
	if reading := timer - d*sim.Time(tick); reading > wall-sim.Time(sleep) {
		t.Errorf("timer stamped from %d ns, after the sleep began (the clock read %d ns after it): a fresh reading, not the drain's", reading, wall)
	}

	time.Sleep(sleep) // the last drain's instant is now well behind the clock
	sys.Do(func() {
		before := sinceStart(sys)
		rec := probeRec(sys, 0)
		sys.transmit(ch+1, lat, rec)
		if got, floor := stampOf(sys, rec), before+lat*sim.Time(tick); got < floor {
			t.Errorf("transmit from Do stamped %d ns, want at least %d ns: outside a drain the clock is read afresh", got, floor)
		}
	})
	if !sys.WaitIdle(idleWait) {
		t.Fatal("due queue did not drain")
	}
}

// deadlineTimer is an algorithm whose "start" timer reads ctx.Now() either
// side of a sleep of several ticks, then arms a "deadline" timer for a
// deadline computed from the first reading; it logs when that one fires.
type deadlineTimer struct {
	sys                            *System
	sleep                          time.Duration
	ahead                          sim.Time
	before, after, deadline, fired sim.Time
	firedWall                      sim.Time
}

func (a *deadlineTimer) Name() string { return "deadline-timer" }

func (a *deadlineTimer) HandleTimer(ctx engine.Context, msg engine.Message) {
	switch msg {
	case "start":
		a.before = ctx.Now()
		time.Sleep(a.sleep)
		a.after = ctx.Now()
		a.deadline = a.before + a.ahead
		ctx.After(a.deadline-ctx.Now(), "deadline")
	case "deadline":
		a.fired, a.firedWall = ctx.Now(), sinceStart(a.sys)
	}
}

// TestHandlerClockIsTheDrainInstant: inside a drain, ctx.Now() is the
// drain's instant, the base After stamps from, so a handler that sleeps
// several ticks reads the same time before and after, and a timer armed for
// "deadline − ctx.Now()" fires no earlier than the deadline.
func TestHandlerClockIsTheDrainInstant(t *testing.T) {
	const tick = time.Millisecond
	cfg := DefaultConfig(2, 2)
	cfg.Tick = tick
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	alg := &deadlineTimer{sys: sys, sleep: 5 * tick, ahead: 20}
	ctx := sys.Register(alg)
	sys.Start()
	t.Cleanup(sys.Stop)
	sys.Do(func() { ctx.After(1, "start") })
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("timers did not drain")
	}
	if alg.after != alg.before {
		t.Errorf("ctx.Now() read %d, then %d after a %v sleep in the same handler: a drain is one instant", alg.before, alg.after, alg.sleep)
	}
	if alg.fired < alg.deadline {
		t.Errorf("deadline timer fired at ctx.Now() = %d, before its deadline %d", alg.fired, alg.deadline)
	}
	if floor := alg.deadline * sim.Time(tick); alg.firedWall < floor {
		t.Errorf("deadline timer fired %d ns after Start, before its deadline (%d ns)", alg.firedWall, floor)
	}
}

// TestChannelFIFOAcrossDrains: records stepped one tick apart, mostly in
// separate drains, each transmit on one channel with a latency shorter than
// the one before. Stamped from each drain's instant and clamped by the
// channel's FIFO clock, they land in transmit order.
func TestChannelFIFOAcrossDrains(t *testing.T) {
	const (
		tick = 500 * time.Microsecond
		k    = 24
		ch   = 1
	)
	cfg := DefaultConfig(2, 2)
	cfg.Tick = tick
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// Probe record i+1 is the i-th step: it transmits probe record k+1+i,
	// which logs i+1 as it lands.
	var got []int
	sys.Register(&stepProbe{on: func(id engine.MSSID) {
		switch i := int(id) - 1; {
		case i >= k:
			got = append(got, i-k+1)
		case i >= 0:
			sys.transmit(ch, sim.Time(2*(k-i)), probeRec(sys, k+1+i))
		}
	}})
	sys.Start()
	t.Cleanup(sys.Stop)
	sys.Do(func() {
		for i := 0; i < k; i++ {
			sys.afterRec(sim.Time(i), probeRec(sys, 1+i))
		}
	})
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("due queue did not drain")
	}
	sys.Do(func() {
		if len(got) != k {
			t.Fatalf("%d of %d transmits landed", len(got), k)
		}
		for i, tag := range got {
			if tag != 1+i {
				t.Fatalf("channel %d landed transmits in order %v, want 1..%d", ch, got, k)
			}
		}
	})
}

// TestHeadDueDuringBatchIsDrainedAtOnce: a record stepped in a drain arms a
// timer one tick after the drain's instant and then outlasts that tick. The
// schedule after the batch reads the clock afresh, finds the new head
// already due and queues a drain at once — where the drain's stale instant
// would arm the wall timer for a tick that has already passed.
func TestHeadDueDuringBatchIsDrainedAtOnce(t *testing.T) {
	const tick = time.Millisecond
	sys, probe := startTicking(t, tick)
	landed := false
	var queued, armed bool
	checked := make(chan struct{})
	probe.on = func(id engine.MSSID) {
		if id == 2 {
			landed = true
			return
		}
		sys.afterRec(1, probeRec(sys, 2))
		// Runs after this drain and its schedule, before the next drain.
		sys.tasks.Push(func() {
			queued, armed = sys.queued, sys.armed
			close(checked)
		})
		time.Sleep(5 * tick)
	}
	sys.Do(func() { sys.afterRec(0, probeRec(sys, 1)) })
	<-checked
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("due queue did not drain")
	}
	sys.Do(func() {
		if !queued || armed {
			t.Errorf("after the batch: drain queued %v, timer armed %v; want a drain queued at once for the head that fell due", queued, armed)
		}
		if !landed {
			t.Error("the head that fell due during the batch never landed")
		}
	})
}

// putRows are the two ways a record enters the host's due queue, each
// putting rec number i after the given ticks.
var putRows = []struct {
	name string
	put  func(sys *System, i int, ticks sim.Time, rec *engine.DeliveryRec)
}{
	{"TransmitRec", func(sys *System, i int, ticks sim.Time, rec *engine.DeliveryRec) {
		cfg := sys.Config()
		sys.transmit(i%engine.ChannelLayout{M: cfg.M, N: cfg.N}.Count(), ticks, rec)
	}},
	{"AfterRec", func(sys *System, _ int, ticks sim.Time, rec *engine.DeliveryRec) {
		sys.afterRec(ticks, rec)
	}},
}

// TestNoGoroutinePerChannel: a record for every channel of an M=8, N=64
// system, transmitted or armed as a timer, leaves the runtime with its
// executor and at most one timer goroutine, sampled from the put until the
// last landing — not one goroutine per channel or per timer.
func TestNoGoroutinePerChannel(t *testing.T) {
	for _, row := range putRows {
		t.Run(row.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := DefaultConfig(8, 64)
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			sys.Start()
			defer sys.Stop()
			sys.Do(func() {
				for i := 0; i < (engine.ChannelLayout{M: cfg.M, N: cfg.N}).Count(); i++ {
					row.put(sys, i, 200, probeRec(sys, 0))
				}
			})
			peak := 0
			for deadline := time.Now().Add(10 * time.Second); !sys.WaitIdle(0); {
				if time.Now().After(deadline) {
					t.Fatal("due queue did not drain")
				}
				peak = max(peak, runtime.NumGoroutine())
			}
			if peak > before+2 {
				t.Errorf("%d goroutines in flight, %d before the system", peak, before)
			}
			if n := runtime.NumGoroutine(); n > before+2 {
				t.Errorf("%d goroutines after the traffic, %d before the system", n, before)
			}
		})
	}
}

// TestDueQueueAllocsFlatInRecords: a Do that transmits (or arms as timers)
// k pooled records, and the drains that land them, allocate about the same
// for k = 10 and k = 1000 — the queue's array, the drain func and the timer
// are reused, where a closure or timer per landed record would add a
// thousand.
func TestDueQueueAllocsFlatInRecords(t *testing.T) {
	for _, row := range putRows {
		t.Run(row.name, func(t *testing.T) {
			sys, _ := startTicking(t, time.Microsecond)
			run := func(k int) float64 {
				return testing.AllocsPerRun(20, func() {
					sys.Do(func() {
						for i := 0; i < k; i++ {
							row.put(sys, i, 1, probeRec(sys, 0))
						}
					})
					if !sys.WaitIdle(10 * time.Second) {
						t.Fatal("due queue did not drain")
					}
				})
			}
			few, many := run(10), run(1000)
			if many > few+8 {
				t.Errorf("putting 1000 records allocated %v times, 10 records %v: the count grows with the batch", many, few)
			}
		})
	}
}

// TestTransmitBeforeStartIsDueFromStart: a record transmitted (or armed as
// a timer) while the system is built is due its latency after Start —
// Host.Now reads 0 until then — not after the put, however long the build
// took.
func TestTransmitBeforeStartIsDueFromStart(t *testing.T) {
	const (
		tick = time.Millisecond
		lat  = 20
		l    = lat * tick
	)
	for _, row := range putRows {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig(2, 2)
			cfg.Tick = tick
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			var landed time.Time
			sys.Register(&stepProbe{on: func(engine.MSSID) { landed = time.Now() }})
			row.put(sys, 0, lat, probeRec(sys, 0))
			time.Sleep(2 * l) // the build outlasts the latency
			start := time.Now()
			sys.Start()
			defer sys.Stop()
			if !sys.WaitIdle(10 * time.Second) {
				t.Fatal("the record never landed")
			}
			var after time.Duration
			sys.Do(func() { after = landed.Sub(start) })
			if after < l {
				t.Errorf("landed %v after Start, before its latency %v", after, l)
			}
			if after > l+2*time.Second {
				t.Errorf("landed %v after Start, want about its latency %v", after, l)
			}
		})
	}
}

// TestDueQueueUnderConcurrentDo: Do callers on several goroutines transmit
// while the drain and its timer run, at a tick short enough that the timer
// fires mid-stream; every record lands once and the system goes idle. Run
// under -race, it checks the seam the due queue shares with other goroutines.
func TestDueQueueUnderConcurrentDo(t *testing.T) {
	const callers, calls, perCall = 4, 50, 4
	sys, probe := startTicking(t, 20*time.Microsecond)
	count := engine.ChannelLayout{M: 2, N: 2}.Count()
	landed := 0
	probe.on = func(engine.MSSID) { landed++ }
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				sys.Do(func() {
					for k := 0; k < perCall; k++ {
						sys.transmit((g+k)%count, sim.Time(1+k%3), probeRec(sys, 0))
					}
				})
			}
		}(g)
	}
	wg.Wait()
	if !sys.WaitIdle(10 * time.Second) {
		t.Fatal("due queue did not drain")
	}
	sys.Do(func() {
		if landed != callers*calls*perCall {
			t.Errorf("%d records landed, want %d", landed, callers*calls*perCall)
		}
	})
}

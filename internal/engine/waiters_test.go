package engine

import (
	"testing"

	"mobiledist/internal/cost"
	"mobiledist/internal/sim"
)

// heldSubstrate queues every record it is handed instead of stepping it:
// a waiter test reads the fired records in the order fireWaiters handed
// them on, and run steps the queue in that order until it is empty.
type heldSubstrate struct {
	sink RecSink
	rng  *sim.RNG
	held []*DeliveryRec
}

func (h *heldSubstrate) Now() sim.Time            { return 0 }
func (h *heldSubstrate) RNG() *sim.RNG            { return h.rng }
func (h *heldSubstrate) BindRecSink(sink RecSink) { h.sink = sink }
func (h *heldSubstrate) TransmitRec(ch int, latency sim.Time, rec *DeliveryRec) {
	h.held = append(h.held, rec)
}
func (h *heldSubstrate) AfterRec(d sim.Time, rec *DeliveryRec) { h.held = append(h.held, rec) }

func (h *heldSubstrate) run() {
	for len(h.held) > 0 {
		rec := h.held[0]
		h.held = h.held[1:]
		h.sink.StepRec(rec)
	}
}

// newWaiterEngine builds an engine of m cells and n hosts over a
// heldSubstrate.
func newWaiterEngine(t testing.TB, m, n int) (*Engine, *heldSubstrate) {
	t.Helper()
	sub := &heldSubstrate{rng: sim.NewRNG(1)}
	e, err := New(Config{
		M: m, N: n, Params: cost.DefaultParams(),
		Wired: FixedDelay(1), Wireless: FixedDelay(1), Travel: FixedDelay(1),
		SearchMode: SearchAbstract,
	}, sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, sub
}

// park parks a fresh resumable routed record on mh and returns it.
func park(e *Engine, mh MHID) *DeliveryRec {
	rec := e.newRec(opRouteResume)
	rec.mh = mh
	e.addWaiter(mh, rec)
	return rec
}

// queued walks mh's waiter queue from its first block and returns the
// records in it, in order, and the number of blocks it spans.
func (w *waiterQueues) queued(mh MHID) ([]*DeliveryRec, int) {
	n := w.len(mh)
	if n == 0 {
		return nil, 0
	}
	var out []*DeliveryRec
	blocks := 0
	for b, left := w.tail[mh].next, n; left > 0; b, left = b.next, left-waitBlockRecs {
		out = append(out, b.recs[:min(left, waitBlockRecs)]...)
		blocks++
	}
	return out, blocks
}

// freeBlocks counts the blocks on the free list.
func (w *waiterQueues) freeBlocks() int {
	n := 0
	for b := w.free; b != nil; b = b.next {
		n++
	}
	return n
}

// slabBlocks is the number of blocks the slabs allocated so far hold,
// while the slab length has not reached slabMax (after which lengths
// repeat and the last one no longer tells how many there were).
func (w *waiterQueues) slabBlocks() (int, bool) {
	total := 0
	for s := 0; s != w.slab; {
		s = nextSlab(s)
		total += s
	}
	return total, w.slab < slabMax
}

func sameRecs(t *testing.T, what string, got, want []*DeliveryRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d out of park order", what, i)
		}
	}
}

// TestWaiterQueueFIFOAcrossBlocks: two hosts' queues, parked interleaved
// over three or more blocks each, fire in park order, each on its own,
// and hand their blocks back.
func TestWaiterQueueFIFOAcrossBlocks(t *testing.T) {
	e, sub := newWaiterEngine(t, 2, 4)
	const each = 3*waitBlockRecs + 4
	var want [2][]*DeliveryRec
	for i := 0; i < each; i++ {
		want[0] = append(want[0], park(e, 1))
		want[1] = append(want[1], park(e, 3))
	}
	if got := e.waiters.len(1); got != each {
		t.Fatalf("mh1 holds %d, want %d", got, each)
	}
	for i, mh := range []MHID{3, 1} {
		sub.held = sub.held[:0]
		e.fireWaiters(mh)
		sameRecs(t, "fired", sub.held, want[1-i])
		if got := e.waiters.len(mh); got != 0 {
			t.Fatalf("mh%d still holds %d after firing", mh, got)
		}
	}
	if free, total := e.waiters.freeBlocks(), slabMin; free != total {
		t.Errorf("%d of %d blocks free after both queues fired, want all", free, total)
	}
	for _, rec := range sub.held {
		e.freeRec(rec)
	}
}

type offerCounter struct {
	offers int
	accept bool
}

func (c *offerCounter) OfferCustody(MSSID, MHID, Message, CustodyRef) bool {
	c.offers++
	return c.accept
}

// TestWaiterLimitOverflowsAtLimit: with WaiterLimit L, the first L parks
// queue and the (L+1)th overflows — into the custody hook when it
// accepts, else into Stats.WaiterDrops. L is one past a block boundary
// and one short of one.
func TestWaiterLimitOverflowsAtLimit(t *testing.T) {
	for _, lim := range []int{1, waitBlockRecs - 1, waitBlockRecs, waitBlockRecs + 1, 2 * waitBlockRecs} {
		for _, hook := range []*offerCounter{nil, {accept: true}, {accept: false}} {
			e, _ := newWaiterEngine(t, 2, 2)
			e.cfg.WaiterLimit = lim
			if hook != nil {
				e.BindCustody(hook)
			}
			for i := 0; i < lim; i++ {
				park(e, 0)
			}
			offers := func() int {
				if hook == nil {
					return 0
				}
				return hook.offers
			}
			if got, drops := e.waiters.len(0), e.stats.WaiterDrops; got != lim || drops != 0 || offers() != 0 {
				t.Fatalf("limit %d: %d parked, %d dropped, %d offered after %d parks; want all parked", lim, got, drops, offers(), lim)
			}
			park(e, 0)
			wantDrops, wantOffers := int64(1), 0
			if hook != nil {
				wantOffers = 1
				if hook.accept {
					wantDrops = 0
				}
			}
			if got := e.waiters.len(0); got != lim {
				t.Errorf("limit %d: %d parked after overflow, want %d", lim, got, lim)
			}
			if e.stats.WaiterDrops != wantDrops || offers() != wantOffers {
				t.Errorf("limit %d, hook %+v: WaiterDrops %d, offers %d; want %d, %d", lim, hook, e.stats.WaiterDrops, offers(), wantDrops, wantOffers)
			}
			if got := e.LiveRecs(); got != lim {
				t.Errorf("limit %d: %d live records, want %d (the overflow returns to the pool)", lim, got, lim)
			}
			if got := e.waiters.len(1); got != 0 {
				t.Errorf("limit %d: overflow on mh0 parked %d on mh1", lim, got)
			}
		}
	}
}

type countMH struct{ got int }

func (c *countMH) Name() string                               { return "count-mh" }
func (c *countMH) HandleMH(ctx Context, at MHID, msg Message) { c.got++ }

// TestWaiterFireLeavesNoLiveRecs: messages routed at a host between cells
// park, and once the join fires them every one is delivered and every
// record, parked ones included, is back in the pool.
func TestWaiterFireLeavesNoLiveRecs(t *testing.T) {
	e, sub := newWaiterEngine(t, 3, 3)
	c := &countMH{}
	ctx := e.Register(c)
	if err := e.Move(0, 2); err != nil {
		t.Fatal(err)
	}
	const sent = 2*waitBlockRecs + 3
	for i := 0; i < sent; i++ {
		ctx.SendToMH(MSSID(i%3), 0, i, cost.CatAlgorithm)
	}
	if got := e.waiters.len(0); got != sent {
		t.Fatalf("%d of %d sends parked on the host in transit", got, sent)
	}
	sub.run()
	if c.got != sent {
		t.Errorf("delivered %d of %d", c.got, sent)
	}
	if at, status := e.Where(0); at != 2 || status != StatusConnected {
		t.Errorf("mh0 at mss%d, %v; want connected at mss2", at, status)
	}
	if got := e.LiveRecs(); got != 0 {
		t.Errorf("LiveRecs() = %d after the waiters fired and ran, want 0", got)
	}
	if got := e.waiters.len(0); got != 0 {
		t.Errorf("mh0 still holds %d waiters", got)
	}
}

// TestWaiterParkFireAllocFree: once the block arena and the record pool
// are warm, parking 40 records and firing them allocates nothing.
func TestWaiterParkFireAllocFree(t *testing.T) {
	e, sub := newWaiterEngine(t, 2, 2)
	cycle := func() {
		for i := 0; i < 40; i++ {
			park(e, 1)
		}
		sub.held = sub.held[:0]
		e.fireWaiters(1)
		for _, rec := range sub.held {
			e.freeRec(rec)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("park+fire of 40 records: %v allocs per run, want 0", allocs)
	}
}

// FuzzWaiterQueue drives the waiter queues with a byte-chosen sequence of
// parks, fires and limit changes against a map model, checked after every
// op: each host's queue holds exactly the model's records in park order,
// a fire hands them on in that order, overflows at the limit are counted,
// the pool holds exactly the parked records, and every block is either in
// a queue or on the free list.
func FuzzWaiterQueue(f *testing.F) {
	// Byte b: op b&3 (0, 1 park, 2 fire, 3 limit), argument b>>2.
	f.Add(append(make([]byte, 40), 2))                                                // 40 parks on mh0 (three blocks), fire
	f.Add([]byte{0, 4, 0, 4, 0, 4, 0, 4, 6, 0, 2, 4, 6})                              // two hosts interleaved, fire one, park, fire both
	f.Add([]byte{3 | 16<<2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}) // limit 16, 18 parks: the last two overflow
	f.Add([]byte{1, 1, 2, 1, 2, 2, 3, 1, 1, 1, 2})                                    // fire an empty queue; limit 0 after limit 1

	f.Fuzz(func(t *testing.T, data []byte) {
		const hosts = 3
		e, sub := newWaiterEngine(t, 2, hosts)
		model := make(map[MHID][]*DeliveryRec)
		var drops int64
		for step, b := range data {
			arg := int(b >> 2)
			mh := MHID(arg % hosts)
			switch b & 3 {
			case 0, 1:
				rec := park(e, mh)
				if lim := e.cfg.WaiterLimit; lim > 0 && len(model[mh]) >= lim {
					drops++
				} else {
					model[mh] = append(model[mh], rec)
				}
			case 2:
				sub.held = sub.held[:0]
				e.fireWaiters(mh)
				sameRecs(t, "fire", sub.held, model[mh])
				delete(model, mh)
				for _, rec := range sub.held {
					e.freeRec(rec)
				}
			case 3:
				e.cfg.WaiterLimit = arg
			}
			parked, blocks := 0, 0
			for h := MHID(0); h < hosts; h++ {
				recs, n := e.waiters.queued(h)
				sameRecs(t, "queue", recs, model[h])
				parked += len(recs)
				blocks += n
			}
			if e.stats.WaiterDrops != drops {
				t.Fatalf("step %d: WaiterDrops %d, model %d", step, e.stats.WaiterDrops, drops)
			}
			if got := e.LiveRecs(); got != parked {
				t.Fatalf("step %d: %d live records, %d parked", step, got, parked)
			}
			if total, ok := e.waiters.slabBlocks(); ok {
				if free := e.waiters.freeBlocks(); blocks+free != total {
					t.Fatalf("step %d: %d blocks queued + %d free, %d allocated", step, blocks, free, total)
				}
			}
		}
	})
}

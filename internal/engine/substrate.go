package engine

import (
	"sort"

	"mobiledist/internal/sim"
)

// Substrate is the execution backend an Engine drives. The engine owns the
// entire protocol model — registries, status machine, routing, mobility,
// cost accounting — and calls into the substrate for exactly four services:
// time, deferred execution, per-channel FIFO transport, and randomness.
//
// Four bindings exist: the deterministic simulation kernel (internal/core
// binds sim.Kernel), the in-process live runtime (internal/rt: rt.Host's
// executor and one due queue over wall time), and the socket runtime over
// TCP streams or authenticated datagrams (internal/netrt). Every Substrate
// method is invoked from the engine's execution context (the kernel
// goroutine or a live executor), and every record handed to the substrate
// must be stepped back on that same execution context.
//
// Records are the only thing that crosses the seam: no method of Substrate
// or RecSink takes a func. Message delivery, mobility steps, ARQ timers,
// algorithm timers (Context.After) and fault-plan crash and restart
// instants all travel as pooled DeliveryRec values. The engine binds itself
// as the substrate's RecSink at construction, and the substrate hands each
// scheduled record to the sink when its time arrives (StepRec executes and
// recycles it), so every parked unit of work is enumerable data counted by
// Engine.LiveRecs. The seam carries transport only: faults are a Weather
// the engine reads on its side of it, never a Substrate wrapped around
// another.
type Substrate interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// RNG returns the deterministic random source latencies are drawn from.
	RNG() *sim.RNG
	// BindRecSink registers the sink that executes delivery records: the
	// engine, which calls it exactly once, before any record is scheduled.
	BindRecSink(sink RecSink)
	// TransmitRec delivers rec on FIFO channel ch: hand it to the bound
	// sink after the drawn link latency, never overtaking an earlier
	// TransmitRec on the same channel. Channel ids are the engine's flat
	// numbering (see ChannelLayout).
	TransmitRec(ch int, latency sim.Time, rec *DeliveryRec)
	// AfterRec hands rec to the bound sink after d ticks of virtual time,
	// outside any channel's FIFO order and after records already due then:
	// AfterRec(0, rec) is "next". A live substrate counts the armed record
	// as an outstanding operation (holding WaitIdle open) unless
	// rec.Daemon() — standing maintenance timers must not wedge quiescence.
	AfterRec(d sim.Time, rec *DeliveryRec)
}

// ChannelKind classifies a flat channel id.
type ChannelKind int

// Channel kinds, in flat-numbering order.
const (
	// ChannelWired is an ordered MSS-to-MSS wired channel.
	ChannelWired ChannelKind = iota + 1
	// ChannelDown is an MSS-to-MH wireless downlink.
	ChannelDown
	// ChannelUp is an MH uplink (to whichever MSS serves its current cell).
	ChannelUp
)

// ChannelLayout is the engine's flat channel numbering for an (m, n)
// network: m*m ordered wired MSS pairs, m*n wireless downlinks and n
// wireless uplinks, numbered contiguously in that order. It is the
// classification surface of a Weather (the fault model): a Weather depends
// on nothing of the engine beyond the interface it implements, this decoder
// and ChanTable, the per-channel storage keyed by it.
type ChannelLayout struct{ M, N int }

// Count returns the number of distinct channel ids. It grows as M*N: state
// per channel belongs in a ChanTable, never in an array of this size.
func (l ChannelLayout) Count() int { return l.M*l.M + l.M*l.N + l.N }

// Decode classifies ch. For ChannelWired, a and b are the source and
// destination MSS ids; for ChannelDown, a is the MSS and b the MH; for
// ChannelUp, a is -1 (the receiving MSS depends on where the MH is) and b
// is the MH.
func (l ChannelLayout) Decode(ch int) (kind ChannelKind, a, b int) {
	wired := l.M * l.M
	down := wired + l.M*l.N
	switch {
	case ch < wired:
		return ChannelWired, ch / l.M, ch % l.M
	case ch < down:
		rel := ch - wired
		return ChannelDown, rel / l.N, rel % l.N
	default:
		return ChannelUp, -1, ch - down
	}
}

// Weather is the fault model the engine reads: a pure decision source,
// asked at two points only. Engine.transmit asks Transmit for the fate of
// every channel transmission, and StepRec asks Discard about every record
// that lands off a channel. The engine acts on the answers itself: it frees
// a destroyed record, clones a duplicate, sends a straggler around the
// channel's FIFO order through AfterRec, and discards a record at its
// receiver. internal/faults implements it from a declarative plan. A nil
// Weather is the paper's §2 network of reliable FIFO channels.
//
// Every method runs on the engine's execution context.
type Weather interface {
	// Bind hands the weather the engine's clock; engine.New calls it once.
	Bind(c PlanClock)
	// Transmit decides the fate of the next transmission on channel ch:
	// its per-channel index idx, how many copies land (0: destroyed in
	// flight, 2: duplicated), and whether the last copy is late, landing
	// extra ticks after its link latency, outside the channel's FIFO order.
	Transmit(ch int) (idx int32, copies int, late bool, extra sim.Time)
	// Discard reports whether transmission idx of channel ch, landing now,
	// is lost at its receiver.
	Discard(ch int, idx int32) bool
	// Stats returns the counters of the transmissions the weather disturbed.
	Stats() FaultStats
}

// PlanClock is what the engine hands its Weather: the virtual time a plan's
// windows are read against, and the one way to schedule a plan's instants.
// The Engine implements it.
type PlanClock interface {
	Now() sim.Time
	// AfterCrash tells every CrashObserver (restart false) or
	// RestartObserver (restart true) about mss, d ticks from now.
	AfterCrash(d sim.Time, mss MSSID, restart bool)
}

// FaultStats are the counters a Weather keeps about the transmissions it
// disturbed. Engine.Stats reports its WirelessDrops.
type FaultStats struct {
	// WirelessDrops counts wireless transmissions destroyed in flight
	// (random loss, a flapped link, or a crashed station's radio).
	WirelessDrops int64
	// WirelessDuplicates counts extra wireless copies injected.
	WirelessDuplicates int64
	// WirelessReorders counts wireless deliveries released out of FIFO
	// order.
	WirelessReorders int64
	// CrashDiscards counts wired transmissions discarded because the
	// sending or receiving MSS was crashed.
	CrashDiscards int64
}

// Flat channel numbering. The zero-allocation arithmetic here is the
// per-message replacement for hashing a (kind, a, b) key.
func (e *Engine) chanWired(from, to MSSID) int {
	return int(from)*e.cfg.M + int(to)
}

func (e *Engine) chanDown(mss MSSID, mh MHID) int {
	return e.cfg.M*e.cfg.M + int(mss)*e.cfg.N + int(mh)
}

func (e *Engine) chanUp(mh MHID) int {
	return e.cfg.M*e.cfg.M + e.cfg.M*e.cfg.N + int(mh)
}

// ChanTable holds one T per flat channel id without ever being sized by
// ChannelLayout.Count, which the M*N downlink block carries to ~10^10 at
// M=10^4/N=10^6. Storage follows the blocks of the numbering: a wired row
// (M entries) per source station, allocated when that station first sends;
// the N uplinks flat; and the downlinks per MH — a host only has downlink
// history with cells that have transmitted to it, so each host keeps one hot
// slot (one cache line per lookup while its current cell serves it) and a
// short overflow list of the cells that served it before.
//
// A pointer returned by At is valid until the next At on the same table: a
// downlink lookup that misses the hot slot swaps entries between the slot
// and the overflow list. A holder that can re-enter the table while it works
// (ARQ, the netrt hub) therefore stores *S as its T and keeps the S; one that
// reads and writes the entry at once (FIFOClock, the fault injector) stores
// the value itself.
type ChanTable[T any] struct {
	m, n              int
	wiredEnd, downEnd int // first downlink id, first uplink id
	wired             [][]T
	hot               []downSlot[T]
	over              [][]downSlot[T]
	up                []T
}

// downSlot is one (station, MH) downlink entry among its MH's slots.
type downSlot[T any] struct {
	cell int32 // station id + 1; 0 marks a hot slot never used
	v    T
}

// downRef is one used downlink slot under its channel id, for Each.
type downRef[T any] struct {
	ch int
	v  *T
}

// NewChanTable returns an empty table for l's numbering, allocating O(M+N).
func NewChanTable[T any](l ChannelLayout) *ChanTable[T] {
	return &ChanTable[T]{
		m:        l.M,
		n:        l.N,
		wiredEnd: l.M * l.M,
		downEnd:  l.M*l.M + l.M*l.N,
		wired:    make([][]T, l.M),
		hot:      make([]downSlot[T], l.N),
		over:     make([][]downSlot[T], l.N),
		up:       make([]T, l.N),
	}
}

// At returns channel ch's entry, the zero T on first use.
func (t *ChanTable[T]) At(ch int) *T {
	if ch >= t.downEnd {
		return &t.up[ch-t.downEnd]
	}
	if rel := ch - t.wiredEnd; rel >= 0 {
		mh, cell := rel%t.n, int32(rel/t.n)+1
		d := &t.hot[mh]
		if d.cell == cell {
			return &d.v
		}
		ov := t.over[mh]
		for i := range ov {
			if ov[i].cell == cell {
				ov[i], *d = *d, ov[i]
				return &d.v
			}
		}
		// First use of this downlink: it takes the hot slot, demoting
		// whatever held it.
		if d.cell != 0 {
			t.over[mh] = append(ov, *d)
		}
		*d = downSlot[T]{cell: cell}
		return &d.v
	}
	row := &t.wired[ch/t.m]
	if *row == nil {
		*row = make([]T, t.m)
	}
	return &(*row)[ch%t.m]
}

// Each calls fn for every entry At has handed out, in ascending channel id
// order. The wired rows and the uplink block are walked whole, so fn also
// sees never-requested neighbours there, holding the zero T. fn must not
// call At.
func (t *ChanTable[T]) Each(fn func(ch int, v *T)) {
	for a, row := range t.wired {
		for b := range row {
			fn(a*t.m+b, &row[b])
		}
	}
	// Downlinks are stored by MH and numbered by station: order the used
	// slots by id before visiting them.
	var down []downRef[T]
	add := func(mh int, s *downSlot[T]) {
		if s.cell != 0 {
			down = append(down, downRef[T]{t.wiredEnd + int(s.cell-1)*t.n + mh, &s.v})
		}
	}
	for mh := range t.hot {
		add(mh, &t.hot[mh])
		for i := range t.over[mh] {
			add(mh, &t.over[mh][i])
		}
	}
	sort.Slice(down, func(i, j int) bool { return down[i].ch < down[j].ch })
	for _, d := range down {
		fn(d.ch, d.v)
	}
	for mh := range t.up {
		fn(t.downEnd+mh, &t.up[mh])
	}
}

// FIFOClock computes FIFO-respecting arrival times: one high-water mark per
// channel. A zero mark means "no prior traffic", which is exact: clamping
// against 0 is a no-op. The unit is the caller's — ticks on the simulator,
// wall nanoseconds since Start in internal/rt's due queue, wall
// nanoseconds since the process started in each internal/netrt relay
// node's and client's. It is the link model on every substrate.
type FIFOClock struct{ marks *ChanTable[sim.Time] }

// NewFIFOClockLayout returns a clock for the engine's (m, n) channel
// numbering.
func NewFIFOClockLayout(m, n int) *FIFOClock {
	return &FIFOClock{marks: NewChanTable[sim.Time](ChannelLayout{M: m, N: n})}
}

// Arrival returns the delivery time for a message sent now with the given
// latency on channel ch, clamped so it never precedes an earlier message on
// the same channel, and records it as the channel's new high-water mark.
func (c *FIFOClock) Arrival(ch int, now, latency sim.Time) sim.Time {
	arrival := now + latency
	mark := c.marks.At(ch)
	if *mark > arrival {
		arrival = *mark
	}
	*mark = arrival
	return arrival
}

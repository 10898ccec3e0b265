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
// binds sim.Kernel), the goroutine live runtime (internal/rt binds its
// executor and channel pipes), and the socket runtime over TCP streams or
// authenticated datagrams (internal/netrt). Every Substrate method is
// invoked from the engine's execution context (the kernel goroutine or a
// live executor), and every record handed to the substrate must be stepped
// back on that same execution context.
//
// Records are the only thing that crosses the seam: no method takes a func.
// Message delivery, mobility steps, ARQ timers and algorithm timers
// (Context.After, fault-plan arming) all travel as pooled DeliveryRec
// values. The engine binds itself as the substrate's RecSink at
// construction, and the substrate hands each scheduled record to the sink
// when its time arrives (StepRec executes and recycles it), so every
// parked unit of work is enumerable data counted by Engine.LiveRecs.
type Substrate interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// RNG returns the deterministic random source latencies are drawn from.
	RNG() *sim.RNG
	// BindRecSink registers the sink that executes delivery records. The
	// engine calls it exactly once, before any record is scheduled; a
	// record-aware wrapper (the fault injector) forwards the bind and may
	// interpose its own sink.
	BindRecSink(sink RecSink)
	// TransmitRec delivers rec on FIFO channel ch: hand it to the bound
	// sink after the drawn link latency, never overtaking an earlier
	// TransmitRec on the same channel. Channel ids are the engine's flat
	// numbering (see ChannelLayout).
	TransmitRec(ch int, latency sim.Time, rec *DeliveryRec)
	// AfterRec hands rec to the bound sink after d ticks of virtual time,
	// outside any channel's FIFO order. A live substrate counts the armed
	// record as an outstanding operation (holding WaitIdle open) unless
	// rec.Daemon() — standing maintenance timers must not wedge quiescence.
	AfterRec(d sim.Time, rec *DeliveryRec)
	// EnqueueRec hands rec to the bound sink as soon as possible,
	// preserving submission order among EnqueueRec calls.
	EnqueueRec(rec *DeliveryRec)
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
// classification surface for transport-level tooling that wraps a Substrate
// (the fault injector): such tooling must depend on nothing of the engine
// beyond Substrate, this decoder and ChanTable, the per-channel storage
// keyed by it.
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

// FaultStats are the counters a fault-injecting Substrate wrapper keeps
// about the transmissions it disturbed. Engine.Stats folds them into the
// model-level Stats so experiments observe loss without the engine knowing
// the injector's type.
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

// FaultReporter is implemented by substrates (or substrate wrappers) that
// inject faults and account for them.
type FaultReporter interface {
	FaultStats() FaultStats
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

// FIFOClock computes FIFO-respecting arrival times for virtual-time
// substrates: one high-water mark per channel. A zero mark means "no prior
// traffic", which is exact: clamping against 0 is a no-op. Substrates that
// serialize channels physically (one goroutine per channel, as internal/rt
// does) do not need it.
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

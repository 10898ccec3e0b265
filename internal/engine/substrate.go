package engine

import "mobiledist/internal/sim"

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
	// numbering (see ChannelCount).
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

// ChannelCount returns the number of distinct FIFO channels in an (m, n)
// network: m*m ordered wired MSS pairs, m*n wireless downlinks, and n
// wireless uplinks. The engine numbers them contiguously in that order, so
// a substrate can size flat per-channel state once at construction.
func ChannelCount(m, n int) int { return m*m + m*n + n }

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

// ChannelLayout decodes the engine's flat channel numbering for an (m, n)
// network. It is the classification surface for transport-level tooling
// that wraps a Substrate (the fault injector): such tooling must depend on
// nothing of the engine beyond Substrate, ChannelCount and this decoder.
type ChannelLayout struct{ M, N int }

// Count returns ChannelCount(l.M, l.N).
func (l ChannelLayout) Count() int { return ChannelCount(l.M, l.N) }

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

// DenseChannelLimit is the largest channel count for which per-channel
// state is kept in one flat array. ChannelCount is dominated by the M*N
// downlink block, which reaches ~10^10 at M=10^4/N=10^6 — far beyond what
// flat slices can hold — while the number of channels that ever carry
// traffic is bounded by live (cell, MH) attachments, O(N). Above the limit
// the ARQ link table switches to a sparse map keyed by channel id; the
// semantics are identical either way.
const DenseChannelLimit = 1 << 22

// denseWiredLimit is the largest wired block (M*M entries) a layout-aware
// FIFOClock keeps as a flat slice. It is far above DenseChannelLimit because
// the wired block is only quadratic in the station count — 10^8 entries at
// M=10^4, within reach of a flat allocation — whereas the downlink block is
// M*N and genuinely intractable flat.
const denseWiredLimit = 1 << 27

// downMark is one per-MH downlink high-water mark: the latest arrival
// scheduled on the (mss, mh) downlink. A host accumulates one entry per
// distinct cell that has ever sent to it, which mobility keeps small.
type downMark struct {
	mss  int32
	mark sim.Time
}

// FIFOClock computes FIFO-respecting arrival times for virtual-time
// substrates: per-channel high-water marks indexed by the engine's channel
// numbering. A zero mark means "no prior traffic", which is exact: clamping
// against 0 is a no-op. Substrates that serialize channels physically (one
// goroutine per channel, as internal/rt does) do not need it.
//
// Storage follows the engine's wired/down/up block structure and never
// needs a global map: the wired and uplink blocks stay flat (they are M^2
// and N entries), and the downlink block — M*N ids, ~10^10 at full scale —
// is held as per-MH marks, exploiting that a host only carries downlink
// history from cells that have actually transmitted to it: a flat
// hottest-mark-per-MH array (one cache line per lookup in the common case
// of a host served by its current cell) plus a rarely-touched overflow
// list holding marks from the host's previous cells.
type FIFOClock struct {
	n        int
	wiredEnd int
	downEnd  int
	wired    []sim.Time
	wiredMap map[int]sim.Time // wired fallback above denseWiredLimit
	down0    []downMark
	downOv   [][]downMark
	up       []sim.Time
}

// NewFIFOClockLayout returns a clock for the engine's (m, n) channel
// numbering using per-block storage, avoiding sparse-map lookups on the
// per-message hot path at every supported scale.
func NewFIFOClockLayout(m, n int) *FIFOClock {
	c := &FIFOClock{
		n:        n,
		wiredEnd: m * m,
		downEnd:  m*m + m*n,
		down0:    make([]downMark, n),
		downOv:   make([][]downMark, n),
		up:       make([]sim.Time, n),
	}
	if m*m <= denseWiredLimit {
		c.wired = make([]sim.Time, m*m)
	} else {
		c.wiredMap = make(map[int]sim.Time)
	}
	return c
}

// Arrival returns the delivery time for a message sent now with the given
// latency on channel ch, clamped so it never precedes an earlier message on
// the same channel, and records it as the channel's new high-water mark.
func (c *FIFOClock) Arrival(ch int, now, latency sim.Time) sim.Time {
	arrival := now + latency
	switch {
	case ch < c.wiredEnd:
		if c.wired != nil {
			slot := &c.wired[ch]
			if *slot > arrival {
				arrival = *slot
			}
			*slot = arrival
			return arrival
		}
		if last := c.wiredMap[ch]; last > arrival {
			arrival = last
		}
		c.wiredMap[ch] = arrival
		return arrival
	case ch < c.downEnd:
		rel := ch - c.wiredEnd
		mh := rel % c.n
		mss := int32(rel / c.n)
		d := &c.down0[mh]
		if d.mss == mss && d.mark != 0 {
			if d.mark > arrival {
				arrival = d.mark
			}
			d.mark = arrival
			return arrival
		}
		ov := c.downOv[mh]
		for i := range ov {
			if ov[i].mss == mss {
				if ov[i].mark > arrival {
					arrival = ov[i].mark
				}
				// Promote the hit to the hot slot; the displaced mark keeps
				// the overflow position.
				ov[i], *d = *d, downMark{mss: mss, mark: arrival}
				return arrival
			}
		}
		// First traffic on this (mss, mh) downlink: it takes the hot slot,
		// demoting whatever held it.
		if d.mark != 0 {
			c.downOv[mh] = append(ov, *d)
		}
		*d = downMark{mss: mss, mark: arrival}
		return arrival
	default:
		slot := &c.up[ch-c.downEnd]
		if *slot > arrival {
			arrival = *slot
		}
		*slot = arrival
		return arrival
	}
}

package obs

import (
	"math/bits"

	"mobiledist/internal/sim"
)

// Histogram buckets and layout: HDR-style base-2 buckets with 4 linear
// sub-buckets each (2 significant bits), covering non-negative int64
// values. Index arithmetic is branch-light and allocation-free; relative
// quantile error is bounded by 25%.
const (
	histSubBits = 2
	histSubs    = 1 << histSubBits       // sub-buckets per power of two
	histBuckets = (64 - histSubBits) * 4 // enough for any int64 exponent
)

// Histogram is a fixed-size log-linear latency/size histogram. The zero
// value is ready to use. Not safe for concurrent use on its own; the
// owning Metrics registry serialises access.
type Histogram struct {
	counts   [histBuckets]int64
	total    int64
	sum      int64
	min, max int64
}

func histIndex(v int64) int {
	if v < histSubs {
		return int(v) // exact for the smallest values
	}
	// exp is the index of the highest set bit; the top histSubBits bits
	// below it select the linear sub-bucket.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := (v >> (uint(exp) - histSubBits)) & (histSubs - 1)
	idx := (exp-histSubBits+1)*histSubs + int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histLower returns the smallest value mapping to bucket idx.
func histLower(idx int) int64 {
	if idx < histSubs {
		return int64(idx)
	}
	exp := idx/histSubs + histSubBits - 1
	sub := int64(idx % histSubs)
	return (int64(1) << uint(exp)) | (sub << (uint(exp) - histSubBits))
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[histIndex(v)]++
	h.total++
	h.sum += v
}

// Count reports how many values were observed.
func (h Histogram) Count() int64 { return h.total }

// Sum reports the sum of observed values.
func (h Histogram) Sum() int64 { return h.sum }

// Mean reports the arithmetic mean (0 when empty).
func (h Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]): the lower
// bound of the bucket holding the q-th observation, clamped to the
// observed extrema.
func (h Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	q = max(0, min(q, 1))
	rank := int64(q * float64(h.total-1))
	var seen int64
	for idx, c := range h.counts {
		seen += c
		if seen > rank {
			return max(h.min, min(histLower(idx), h.max))
		}
	}
	return h.max
}

// histDef is one row of the histogram table: the name /metrics exports
// (after a mobiledist_ prefix) and its help text, and the events that feed
// it. A value row observes one operand of every `on` event. A span row
// (value nil) observes the ticks from a `start` event to the next `on`
// event with the same operand A; a later start restarts the clock unless
// keepFirst is set, and a `cancel` event abandons the span.
type histDef struct {
	name, help    string
	on            EventKind
	value         func(Event) int32
	start, cancel uint64 // kind masks
	keepFirst     bool
}

func operandB(e Event) int32 { return e.B }
func operandC(e Event) int32 { return e.C }

// histograms is the table: every histogram the registry keeps, in the
// order /metrics renders them. Adding a histogram is adding a row.
var histograms = [...]histDef{
	{name: "cs_latency_ticks", help: "Critical-section request-to-grant latency in ticks.",
		on: EvCSEnter, start: 1 << EvCSRequest},
	{name: "handoff_ticks", help: "Mobility handoff duration (leave/reconnect to join) in ticks.",
		on: EvJoin, start: 1<<EvLeave | 1<<EvReconnect},
	{name: "chase_hops", help: "Wireless delivery attempts per routed message.",
		on: EvDeliver, value: operandC},
	{name: "arq_retries", help: "ARQ retransmissions per eventually-acked frame.",
		on: EvAck, value: operandB},
	{name: "dgram_rtt_us", help: "Per-datagram round-trip time in microseconds (Karn-sampled).",
		on: EvPacketRTT, value: operandB},
	{name: "bundle_copies", help: "Replicas created over the lifetime of each delivered DTN bundle.",
		on: EvBundleDelivered, value: operandC},
	// The first custody acceptance starts the clock; replicas of the same
	// bundle accepted later must not reset it.
	{name: "bundle_custody_ticks", help: "DTN custody-accept to delivery duration in ticks.",
		on: EvBundleDelivered, start: 1 << EvBundleCustody, keepFirst: true,
		cancel: 1<<EvBundleExpired | 1<<EvBundleDropped},
}

// Metrics is the registry fed by a Tracer: per-kind event counters and one
// histogram per row of the table. It is only touched under the owning
// tracer's lock.
type Metrics struct {
	counts [evKindCount]int64
	hists  [len(histograms)]Histogram
	open   [len(histograms)]map[int32]sim.Time // span rows: start time by operand A
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{}
	for i, d := range histograms {
		if d.value == nil {
			m.open[i] = make(map[int32]sim.Time)
		}
	}
	return m
}

// observe folds one event into the registry. Called under the tracer lock.
func (m *Metrics) observe(ev Event) {
	m.counts[ev.Kind]++
	bit := uint64(1) << ev.Kind
	for i := range histograms {
		d, open := &histograms[i], m.open[i]
		switch {
		case ev.Kind == d.on && d.value != nil:
			m.hists[i].Observe(int64(d.value(ev)))
		case ev.Kind == d.on:
			if t0, ok := open[ev.A]; ok {
				m.hists[i].Observe(int64(ev.T - t0))
				delete(open, ev.A)
			}
		case d.start&bit != 0:
			if _, ok := open[ev.A]; !ok || !d.keepFirst {
				open[ev.A] = ev.T
			}
		case d.cancel&bit != 0:
			delete(open, ev.A)
		}
	}
}

// MetricsSnapshot is a point-in-time copy of a tracer's counters and
// histograms.
type MetricsSnapshot struct {
	// Counts maps kind names to event counts (zero-count kinds are omitted).
	Counts map[string]int64
	// Histograms maps each table row's name to a copy of its histogram.
	Histograms map[string]Histogram
	// Total counts every event the tracer recorded, including those its
	// ring has since overwritten; Dropped counts the overwritten ones.
	Total, Dropped uint64
}

// MetricsSnapshot copies the tracer's totals and, when a registry is
// attached, its counters and histograms, all under the tracer lock, so the
// snapshot is consistent with concurrent recording.
func (t *Tracer) MetricsSnapshot() MetricsSnapshot {
	s := MetricsSnapshot{Counts: map[string]int64{}, Histograms: map[string]Histogram{}}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Total = t.total
	if t.bounded {
		s.Dropped = t.total - min(t.total, uint64(len(t.ring)))
	}
	if m := t.metrics; m != nil {
		for k, c := range m.counts {
			if c != 0 {
				s.Counts[EventKind(k).String()] = c
			}
		}
		for i, d := range histograms {
			s.Histograms[d.name] = m.hists[i]
		}
	}
	return s
}

package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"mobiledist/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(1, EvTransmit, 1, 2, 3) // must not panic
	tr.SetTopology(2, 3)
	tr.EnableOnly(EvJoin)
	if tr.Events() != nil {
		t.Error("nil tracer reported events")
	}
	if s := tr.Snapshot(); s.M != 0 || s.N != 0 || s.Events != nil {
		t.Error("nil tracer reported a trace")
	}
	if tr.WithMetrics(NewMetrics()) != nil {
		t.Error("WithMetrics on nil tracer returned non-nil")
	}
	snap := tr.MetricsSnapshot()
	if len(snap.Counts) != 0 || len(snap.Histograms) != 0 || snap.Total != 0 || snap.Dropped != 0 {
		t.Errorf("nil tracer snapshot has state: %+v", snap)
	}
}

// allKindsBut lists every defined kind except the given ones, in numbering
// order.
func allKindsBut(skip ...EventKind) []EventKind {
	var out []EventKind
	for k := EventKind(1); k < evKindCount; k++ {
		if !slices.Contains(skip, k) {
			out = append(out, k)
		}
	}
	return out
}

func TestRecordAllocatesNothing(t *testing.T) {
	tr := NewTracer(64).WithMetrics(NewMetrics())
	tr.Record(0, EvCSRequest, 1, 0, 0) // warm the pairing map
	var now sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		tr.Record(now, EvTransmit, 3, 7, 0)
		tr.Record(now, EvDeliver, 1, 0, 1)
	})
	if allocs != 0 {
		t.Errorf("Record allocates %.1f per run, want 0", allocs)
	}
}

func TestMaskedKindRecordsNothingAndAllocatesNothing(t *testing.T) {
	tr := NewTracer(0).WithMetrics(NewMetrics()) // recorder mode: appends would allocate
	tr.EnableOnly(allKindsBut(EvTransmit)...)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(1, EvTransmit, 3, 7, 0)
	})
	if allocs != 0 {
		t.Errorf("masked-out Record allocates %.1f per run, want 0", allocs)
	}
	s := tr.MetricsSnapshot()
	if s.Total != 0 || len(tr.Events()) != 0 {
		t.Errorf("masked-out kind recorded: total=%d events=%d", s.Total, len(tr.Events()))
	}
	if got := s.Counts[EvTransmit.String()]; got != 0 {
		t.Errorf("masked-out kind reached metrics: count=%d", got)
	}

	tr.Record(2, EvDeliver, 1, 0, 1) // other kinds unaffected
	tr.EnableOnly(allKindsBut()...)
	tr.Record(3, EvTransmit, 3, 7, 0)
	if total := tr.MetricsSnapshot().Total; total != 2 {
		t.Errorf("after re-enable Total = %d, want 2", total)
	}
}

// TestMaskedDgramKindsAllocateNothing pins the masked fast path for the
// datagram-substrate kinds: a netrt hub tracing only model events must pay
// zero allocations for the per-packet events a busy UDP transport emits.
func TestMaskedDgramKindsAllocateNothing(t *testing.T) {
	dgramKinds := []EventKind{
		EvSessionEstablished, EvPacketSent, EvPacketRecv,
		EvPacketRetransmit, EvPacketReplayDropped, EvPacketRTT,
	}
	tr := NewTracer(0).WithMetrics(NewMetrics())
	tr.EnableOnly(allKindsBut(dgramKinds...)...)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, k := range dgramKinds {
			tr.Record(1, k, 3, 250, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("masked-out datagram kinds allocate %.1f per run, want 0", allocs)
	}
	s := tr.MetricsSnapshot()
	if s.Total != 0 {
		t.Errorf("masked-out datagram kinds recorded: total=%d", s.Total)
	}
	if n := s.Histograms["dgram_rtt_us"].Count(); n != 0 {
		t.Errorf("masked packet-rtt reached the RTT histogram: count=%d", n)
	}
}

// TestPacketRTTFeedsHistogram: an enabled packet-rtt event lands its
// microsecond operand in the dgram_rtt_us histogram.
func TestPacketRTTFeedsHistogram(t *testing.T) {
	tr := NewTracer(0).WithMetrics(NewMetrics())
	tr.Record(5, EvPacketRTT, 1, 740, 0)
	tr.Record(6, EvPacketRTT, 1, 260, 0)
	s := tr.MetricsSnapshot()
	if h := s.Histograms["dgram_rtt_us"]; h.Count() != 2 || h.Sum() != 1000 {
		t.Errorf("dgram_rtt_us count=%d sum=%d, want 2, 1000", h.Count(), h.Sum())
	}
	if s.Counts["packet-rtt"] != 2 {
		t.Errorf("packet-rtt count = %d, want 2", s.Counts["packet-rtt"])
	}
}

func TestEnableOnlyWhitelistsKinds(t *testing.T) {
	tr := NewTracer(0)
	tr.EnableOnly(MobilityKinds()...)
	for _, k := range allKindsBut() {
		tr.Record(1, k, 0, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != len(MobilityKinds()) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(MobilityKinds()))
	}
	for i, want := range MobilityKinds() {
		if evs[i].Kind != want {
			t.Errorf("event %d: kind %v, want %v", i, evs[i].Kind, want)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := int32(0); i < 10; i++ {
		tr.Record(sim.Time(i), EvTransmit, i, 0, 0)
	}
	if s := tr.MetricsSnapshot(); s.Total != 10 || s.Dropped != 6 {
		t.Errorf("Total = %d, Dropped = %d, want 10, 6", s.Total, s.Dropped)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int32(6 + i); ev.A != want {
			t.Errorf("event %d: A = %d, want %d (oldest-first window)", i, ev.A, want)
		}
	}
}

func TestRecorderKeepsEverything(t *testing.T) {
	tr := NewTracer(0)
	for i := int32(0); i < 100; i++ {
		tr.Record(sim.Time(i), EvTransmit, i, 0, 0)
	}
	if d := tr.MetricsSnapshot().Dropped; d != 0 || len(tr.Events()) != 100 {
		t.Errorf("recorder dropped events: dropped=%d len=%d", d, len(tr.Events()))
	}
}

func TestTopologyMixedDetection(t *testing.T) {
	tr := NewTracer(0)
	tr.SetTopology(4, 16)
	if s := tr.Snapshot(); s.M != 4 || s.N != 16 {
		t.Errorf("topology = (%d, %d), want (4, 16)", s.M, s.N)
	}
	tr.SetTopology(4, 16) // same shape is fine
	tr.SetTopology(8, 32) // mixing zeroes it
	if s := tr.Snapshot(); s.M != 0 || s.N != 0 {
		t.Errorf("mixed topology = (%d, %d), want (0, 0)", s.M, s.N)
	}
	tr.SetTopology(4, 16) // stays mixed
	if s := tr.Snapshot(); s.M != 0 || s.N != 0 {
		t.Error("mixed topology reverted")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range allKindsBut() {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Errorf("kind %d has no name", k)
		}
		got, ok := KindFromString(name)
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %d, %v; want %d", name, got, ok, k)
		}
	}
	for _, name := range []string{"nope", "unknown", ""} {
		if _, ok := KindFromString(name); ok {
			t.Errorf("KindFromString(%q) accepted", name)
		}
	}
}

func sampleTrace() Trace {
	return Trace{M: 2, N: 3, Events: []Event{
		{T: 0, Kind: EvTransmit, A: 5, B: 2, C: 0},
		{T: 3, Kind: EvLeave, A: 1, B: 0, C: 0},
		{T: 40, Kind: EvJoin, A: 1, B: 1, C: 0},
		{T: 40, Kind: EvDeliver, A: 2, B: 1, C: -1},
		{T: 1 << 40, Kind: EvCrashDiscard, A: 3, B: 1, C: 0},
	}}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	assertTraceEqual(t, tr, got)

	// Canonical: re-encoding is byte-identical.
	var buf2 bytes.Buffer
	if err := got.WriteJSONL(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSONL encoding is not canonical")
	}
}

func assertTraceEqual(t *testing.T, want, got Trace) {
	t.Helper()
	if got.M != want.M || got.N != want.N {
		t.Errorf("topology (%d, %d), want (%d, %d)", got.M, got.N, want.M, want.N)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%d events, want %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Errorf("event %d: %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.min != 1 || h.max != 1000 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.min, h.max)
	}
	// Log-linear with 2 significant bits: quantile estimates must be within
	// 25% below the true value (bucket lower bounds).
	for _, tc := range []struct {
		q    float64
		true int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(tc.q)
		if got > tc.true || float64(got) < float64(tc.true)*0.75 {
			t.Errorf("Quantile(%g) = %d, want in [%g, %d]", tc.q, got, float64(tc.true)*0.75, tc.true)
		}
	}
	if h.Mean() < 500 || h.Mean() > 501 {
		t.Errorf("Mean = %g, want 500.5", h.Mean())
	}
}

func TestHistogramObserveIsAllocFree(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(12345) })
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f per run", allocs)
	}
}

func TestMetricsPairing(t *testing.T) {
	tr := NewTracer(0).WithMetrics(NewMetrics())
	// CS latency: request at 10, enter at 25 → 15 ticks.
	tr.Record(10, EvCSRequest, 1, 0, 0)
	tr.Record(25, EvCSEnter, 1, 0, 0)
	// Handoff: leave at 30, join at 70 → 40 ticks.
	tr.Record(30, EvLeave, 2, 0, 0)
	tr.Record(70, EvJoin, 2, 1, 0)
	// Chase hops and ARQ retries come straight off the operands.
	tr.Record(80, EvDeliver, 1, 1, 3)
	tr.Record(90, EvAck, 4, 2, 0)

	s := tr.MetricsSnapshot()
	for name, want := range map[string][2]int64{
		"cs_latency_ticks": {1, 15},
		"handoff_ticks":    {1, 40},
		"chase_hops":       {1, 3},
		"arq_retries":      {1, 2},
	} {
		if h := s.Histograms[name]; h.Count() != want[0] || h.Sum() != want[1] {
			t.Errorf("%s count=%d sum=%d, want %d, %d", name, h.Count(), h.Sum(), want[0], want[1])
		}
	}
	if s.Counts["cs-request"] != 1 || s.Counts["join"] != 1 {
		t.Errorf("counters wrong: %v", s.Counts)
	}
}

// TestSnapshotDiff: a snapshot is a copy, not a view — recording after it
// leaves it unchanged — so subtracting two snapshots meters the activity
// between them.
func TestSnapshotDiff(t *testing.T) {
	tr := NewTracer(0).WithMetrics(NewMetrics())
	tr.Record(0, EvTransmit, 0, 1, 0)
	tr.Record(1, EvDeliver, 0, 0, 1)
	before := tr.MetricsSnapshot()
	tr.Record(2, EvTransmit, 0, 1, 0)
	tr.Record(3, EvDeliver, 0, 0, 2)
	after := tr.MetricsSnapshot()
	if before.Counts["transmit"] != 1 || before.Histograms["chase_hops"].Count() != 1 || before.Total != 2 {
		t.Errorf("earlier snapshot changed under later recording: %+v", before.Counts)
	}
	if d := after.Counts["deliver"] - before.Counts["deliver"]; d != 1 {
		t.Errorf("deliver count grew by %d between snapshots, want 1", d)
	}
	b, a := before.Histograms["chase_hops"], after.Histograms["chase_hops"]
	if a.Count()-b.Count() != 1 || a.Sum()-b.Sum() != 2 {
		t.Errorf("chase_hops grew by count %d sum %d, want 1, 2", a.Count()-b.Count(), a.Sum()-b.Sum())
	}
}

func TestFilterAndMobilityKinds(t *testing.T) {
	events := sampleTrace().Events
	kept := Filter(events, KindFilter(MobilityKinds()...))
	if len(kept) != 2 || kept[0].Kind != EvLeave || kept[1].Kind != EvJoin {
		t.Errorf("mobility filter kept %v", Lines(kept, false))
	}
	if got := events[1].Line(true); got != "3 leave 1 0 0" {
		t.Errorf("Line(true) = %q", got)
	}
	if got := events[3].Line(false); got != "deliver 2 1 -1" {
		t.Errorf("Line(false) = %q", got)
	}
}

// TestHandlerServesMetrics pins the whole /metrics rendering of a fixed
// event sequence: the per-kind counters, the tracer's recorded and dropped
// totals (a 4-event ring after 10 events), and every row of the histogram
// table, the span rows' restart and keep-first rules included. Other paths
// are not served.
func TestHandlerServesMetrics(t *testing.T) {
	tr := NewTracer(4).WithMetrics(NewMetrics())
	tr.Record(10, EvCSRequest, 1, 0, 0)
	tr.Record(25, EvCSEnter, 1, 0, 0)
	tr.Record(30, EvLeave, 2, 0, 0)
	tr.Record(70, EvJoin, 2, 1, 0)
	tr.Record(80, EvDeliver, 1, 1, 3)
	tr.Record(90, EvAck, 4, 2, 0)
	tr.Record(95, EvPacketRTT, 1, 740, 0)
	tr.Record(100, EvBundleCustody, 7, 0, 2)
	tr.Record(120, EvBundleCustody, 7, 1, 2) // a replica: the clock keeps running
	tr.Record(160, EvBundleDelivered, 7, 1, 3)
	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, buf.String()
	}

	summary := func(name, help string, v int64) string {
		return fmt.Sprintf("# HELP mobiledist_%s %s\n# TYPE mobiledist_%s summary\n", name, help, name) +
			fmt.Sprintf("mobiledist_%s{quantile=\"0.5\"} %d\nmobiledist_%s{quantile=\"0.9\"} %d\nmobiledist_%s{quantile=\"0.99\"} %d\n", name, v, name, v, name, v) +
			fmt.Sprintf("mobiledist_%s_sum %d\nmobiledist_%s_count 1\n", name, v, name)
	}
	want := `# HELP mobiledist_events_total Observability events recorded, by kind.
# TYPE mobiledist_events_total counter
mobiledist_events_total{kind="ack"} 1
mobiledist_events_total{kind="bundle-custody"} 2
mobiledist_events_total{kind="bundle-delivered"} 1
mobiledist_events_total{kind="cs-enter"} 1
mobiledist_events_total{kind="cs-request"} 1
mobiledist_events_total{kind="deliver"} 1
mobiledist_events_total{kind="join"} 1
mobiledist_events_total{kind="leave"} 1
mobiledist_events_total{kind="packet-rtt"} 1
# HELP mobiledist_trace_recorded_total Events the tracer recorded, including any its ring has since overwritten.
# TYPE mobiledist_trace_recorded_total counter
mobiledist_trace_recorded_total 10
# HELP mobiledist_trace_dropped_total Events the tracer's ring overwrote.
# TYPE mobiledist_trace_dropped_total counter
mobiledist_trace_dropped_total 6
` + summary("cs_latency_ticks", "Critical-section request-to-grant latency in ticks.", 15) +
		summary("handoff_ticks", "Mobility handoff duration (leave/reconnect to join) in ticks.", 40) +
		summary("chase_hops", "Wireless delivery attempts per routed message.", 3) +
		summary("arq_retries", "ARQ retransmissions per eventually-acked frame.", 2) +
		summary("dgram_rtt_us", "Per-datagram round-trip time in microseconds (Karn-sampled).", 740) +
		summary("bundle_copies", "Replicas created over the lifetime of each delivered DTN bundle.", 3) +
		summary("bundle_custody_ticks", "DTN custody-accept to delivery duration in ticks.", 60)
	if code, got := get("/metrics"); code != http.StatusOK || got != want {
		t.Errorf("GET /metrics: status %d, body:\n%s\nwant:\n%s", code, got, want)
	}
	if code, _ := get("/vars"); code != http.StatusNotFound {
		t.Errorf("GET /vars: status %d, want 404", code)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one counter family for event counts, and
// count/sum/quantile series per histogram. Counter names are sorted so the
// output is stable.
func (s MetricsSnapshot) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP mobiledist_events_total Observability events recorded, by kind.\n")
	fmt.Fprintf(w, "# TYPE mobiledist_events_total counter\n")
	for _, name := range s.CounterNames() {
		fmt.Fprintf(w, "mobiledist_events_total{kind=%q} %d\n", name, s.Counts[name])
	}
	writeHist := func(name, help string, h Histogram) {
		fmt.Fprintf(w, "# HELP mobiledist_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE mobiledist_%s summary\n", name)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "mobiledist_%s{quantile=\"%g\"} %d\n", name, q, h.Quantile(q))
		}
		fmt.Fprintf(w, "mobiledist_%s_sum %d\n", name, h.Sum())
		fmt.Fprintf(w, "mobiledist_%s_count %d\n", name, h.Count())
	}
	writeHist("cs_latency_ticks", "Critical-section request-to-grant latency in ticks.", s.CSLatency)
	writeHist("handoff_ticks", "Mobility handoff duration (leave/reconnect to join) in ticks.", s.HandoffTicks)
	writeHist("chase_hops", "Wireless delivery attempts per routed message.", s.ChaseHops)
	writeHist("arq_retries", "ARQ retransmissions per eventually-acked frame.", s.ARQRetries)
	writeHist("dgram_rtt_us", "Per-datagram round-trip time in microseconds (Karn-sampled).", s.DgramRTTUS)
}

// expvarValue is the JSON shape the /vars endpoint exposes: the counter map plus summary statistics per histogram.
type expvarValue struct {
	Events     map[string]int64       `json:"events"`
	Histograms map[string]histSummary `json:"histograms"`
	Total      uint64                 `json:"total_recorded"`
	Dropped    uint64                 `json:"dropped"`
}

type histSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

func summarize(h Histogram) histSummary {
	return histSummary{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P99: h.Quantile(0.99), Max: h.Max(),
	}
}

func (t *Tracer) expvarValue() expvarValue {
	s := t.MetricsSnapshot()
	return expvarValue{
		Events: s.Counts,
		Histograms: map[string]histSummary{
			"cs_latency_ticks": summarize(s.CSLatency),
			"handoff_ticks":    summarize(s.HandoffTicks),
			"chase_hops":       summarize(s.ChaseHops),
			"arq_retries":      summarize(s.ARQRetries),
			"dgram_rtt_us":     summarize(s.DgramRTTUS),
		},
		Total:   t.Total(),
		Dropped: t.Dropped(),
	}
}

// Handler returns an HTTP handler exposing the tracer:
//
//	/metrics  Prometheus text exposition of the metrics registry
//	/vars     the expvar-style JSON snapshot
//
// Snapshots are taken under the tracer lock, so scraping a live run is
// safe and each scrape is internally consistent.
func (t *Tracer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.MetricsSnapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.expvarValue())
	})
	return mux
}

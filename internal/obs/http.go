package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// writePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one counter family for event counts (sorted by
// kind, so the output is stable), the tracer's recorded and dropped
// totals, and count/sum/quantile series for every row of the histogram
// table.
func (s MetricsSnapshot) writePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP mobiledist_events_total Observability events recorded, by kind.\n")
	fmt.Fprintf(w, "# TYPE mobiledist_events_total counter\n")
	kinds := make([]string, 0, len(s.Counts))
	for k := range s.Counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "mobiledist_events_total{kind=%q} %d\n", k, s.Counts[k])
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP mobiledist_%s %s\n# TYPE mobiledist_%s counter\nmobiledist_%s %d\n", name, help, name, name, v)
	}
	counter("trace_recorded_total", "Events the tracer recorded, including any its ring has since overwritten.", s.Total)
	counter("trace_dropped_total", "Events the tracer's ring overwrote.", s.Dropped)
	for _, d := range histograms {
		h := s.Histograms[d.name]
		fmt.Fprintf(w, "# HELP mobiledist_%s %s\n", d.name, d.help)
		fmt.Fprintf(w, "# TYPE mobiledist_%s summary\n", d.name)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "mobiledist_%s{quantile=\"%g\"} %d\n", d.name, q, h.Quantile(q))
		}
		fmt.Fprintf(w, "mobiledist_%s_sum %d\n", d.name, h.Sum())
		fmt.Fprintf(w, "mobiledist_%s_count %d\n", d.name, h.Count())
	}
}

// Handler returns an HTTP handler serving the tracer's counters and
// histograms as Prometheus text at /metrics. The snapshot is taken under
// the tracer lock, so scraping a live run is safe and each scrape is
// internally consistent.
func (t *Tracer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.MetricsSnapshot().writePrometheus(w)
	})
	return mux
}

package rt

import (
	"net/http"

	"mobiledist/internal/obs"
)

// Tracer returns the tracer the system was configured with, or nil.
func (h *Host) Tracer() *obs.Tracer { return h.cfg.Obs }

// MetricsHandler returns an http.Handler exposing the system's
// observability state while it runs, as Prometheus text at /metrics (see
// obs.Tracer.Handler): the per-kind event counters, the tracer's recorded
// and dropped totals, and the histogram table. Scraping is safe from any
// goroutine at any point in the lifecycle — the tracer snapshots under its
// own lock — so a live run can be watched without stopping it. A system
// built without a tracer serves 404s.
func (h *Host) MetricsHandler() http.Handler {
	if h.cfg.Obs == nil {
		return http.NotFoundHandler()
	}
	return h.cfg.Obs.Handler()
}

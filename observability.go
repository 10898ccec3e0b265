package mobiledist

import (
	"mobiledist/internal/core"
	"mobiledist/internal/obs"
)

// Observability vocabulary (tracing and metrics; see internal/obs).
type (
	// Tracer records typed observability events into a ring buffer (or an
	// unbounded recorder) and optionally feeds a Metrics registry. Attach
	// one via Config.Obs or process-wide via SetDefaultTracer; a nil
	// tracer disables tracing at zero cost.
	Tracer = obs.Tracer
	// TraceEvent is one recorded observation: virtual time, kind, and
	// three kind-specific operands.
	TraceEvent = obs.Event
	// TraceEventKind classifies a recorded event.
	TraceEventKind = obs.EventKind
	// ExportedTrace is a captured run — topology plus event stream — that
	// round-trips through JSONL and can be diffed with cmd/mobiletrace.
	ExportedTrace = obs.Trace
	// TraceMetrics is the counter-and-histogram registry a Tracer feeds.
	TraceMetrics = obs.Metrics
	// TraceMetricsSnapshot is a point-in-time copy of a tracer's counters,
	// histograms and recorded/dropped totals — what /metrics renders.
	TraceMetricsSnapshot = obs.MetricsSnapshot
)

// NewTracer returns a tracer keeping the most recent capacity events;
// capacity <= 0 keeps every event (for trace export).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewTraceMetrics returns an empty metrics registry, to be attached with
// Tracer.WithMetrics.
func NewTraceMetrics() *TraceMetrics { return obs.NewMetrics() }

// SetDefaultTracer makes every DefaultConfig-built system record into the
// given tracer (nil restores tracing-off defaults). Set it during process
// setup, before building systems.
func SetDefaultTracer(t *Tracer) { core.SetDefaultTracer(t) }

// DefaultTracer returns the tracer DefaultConfig currently attaches.
func DefaultTracer() *Tracer { return core.DefaultTracer() }

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Times are nanoseconds
// since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part of it its children
	// cover; filled in when the file is written.
	SelfNS int64 `json:"self_ns"`
}

// spanRecorder keeps spans in memory and writes them at exit. A nil
// recorder records nothing, so untraced runs pay one nil check per call
// site and no clock read.
type spanRecorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	// counts are the program's own per-kind event counts (cfg.Obs) for the
	// traced phase, stored beside the spans.
	counts map[string]int64
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), workload: workload}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name, StartNS: now, EndNS: -1})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// add records a span whose start and end were taken elsewhere (the sampled
// issue→deliver spans, stamped on the program's own execution context).
func (r *spanRecorder) add(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Workload: r.workload, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
}

// in runs fn inside a span.
func (r *spanRecorder) in(name string, parent int, fn func(id int)) {
	id := r.begin(name, parent)
	fn(id)
	r.end(id)
}

// traceFile is the on-disk shape of a traced run.
type traceFile struct {
	Spans []span `json:"spans"`
	// SelfByName sums self time per span name: where the run's wall time
	// went, layer call by layer call.
	SelfByName map[string]int64 `json:"self_ns_by_name"`
	// Counts are the program's obs event counts during the traced phase.
	Counts map[string]int64 `json:"obs_event_counts,omitempty"`
}

// finish closes still-open spans, computes self times and returns the file.
func (r *spanRecorder) finish() traceFile {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		if s.EndNS < 0 {
			s.EndNS = now
		}
	}
	for _, s := range r.spans {
		// Sampled message spans overlap each other inside the chain phase,
		// so they describe latency, not a partition of their parent's time.
		if s.Parent >= 0 && s.Name != spanMessage {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	tf := traceFile{SelfByName: map[string]int64{}, Counts: r.counts}
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNS = s.EndNS - s.StartNS - covered[i]
		if s.Name != spanMessage {
			tf.SelfByName[s.Name] += s.SelfNS
		}
	}
	tf.Spans = append(tf.Spans, r.spans...)
	return tf
}

// spanMessage names the 1-in-64 sampled issue→deliver spans.
const spanMessage = "message"

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

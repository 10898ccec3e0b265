package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mobiledist/internal/sim"
)

// Trace is an exported run: the network topology it was captured on and
// the event stream in recording order. M and N are 0 when the tracer was
// shared across systems of different shapes.
type Trace struct {
	M, N   int
	Events []Event
}

// jsonlHeader is the first line of the JSONL format.
type jsonlHeader struct {
	Trace  string `json:"trace"`
	V      int    `json:"v"`
	M      int    `json:"m"`
	N      int    `json:"n"`
	Events int    `json:"events"`
}

// jsonlEvent is one event line of the JSONL format.
type jsonlEvent struct {
	T sim.Time `json:"t"`
	K string   `json:"k"`
	A int32    `json:"a"`
	B int32    `json:"b"`
	C int32    `json:"c"`
}

const (
	jsonlName    = "mobiledist"
	jsonlVersion = 1
)

// WriteJSONL renders the trace as line-oriented JSON: a header line
// followed by one event per line. The output is canonical — field order is
// fixed — so equal traces are byte-identical.
func (t Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Trace: jsonlName, V: jsonlVersion, M: t.M, N: t.N, Events: len(t.Events)}); err != nil {
		return err
	}
	for _, ev := range t.Events {
		if err := enc.Encode(jsonlEvent{T: ev.T, K: ev.Kind.String(), A: ev.A, B: ev.B, C: ev.C}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) (Trace, error) {
	dec := json.NewDecoder(r)
	var hdr jsonlHeader
	if err := dec.Decode(&hdr); err != nil {
		return Trace{}, fmt.Errorf("obs: trace header: %w", err)
	}
	if hdr.Trace != jsonlName || hdr.V != jsonlVersion {
		return Trace{}, fmt.Errorf("obs: not a v%d %s trace (header %q v%d)", jsonlVersion, jsonlName, hdr.Trace, hdr.V)
	}
	out := Trace{M: hdr.M, N: hdr.N} // hdr.Events is not trusted to size anything
	for {
		var line jsonlEvent
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return Trace{}, fmt.Errorf("obs: trace event %d: %w", len(out.Events), err)
		}
		kind, ok := KindFromString(line.K)
		if !ok {
			return Trace{}, fmt.Errorf("obs: trace event %d: unknown kind %q", len(out.Events), line.K)
		}
		out.Events = append(out.Events, Event{T: line.T, Kind: kind, A: line.A, B: line.B, C: line.C})
	}
	return out, nil
}

// Line renders one event as a canonical space-separated string,
// optionally prefixed with its timestamp. The timeless form is the
// cross-substrate comparison key: the same protocol step yields the same
// line on the simulator and the live runtime even though their clocks
// differ.
func (e Event) Line(withTime bool) string {
	if withTime {
		return fmt.Sprintf("%d %s %d %d %d", int64(e.T), e.Kind, e.A, e.B, e.C)
	}
	return fmt.Sprintf("%s %d %d %d", e.Kind, e.A, e.B, e.C)
}

// Lines renders events with Line, in order.
func Lines(events []Event, withTime bool) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.Line(withTime)
	}
	return out
}

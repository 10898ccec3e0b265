package obs

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL checks the trace reader on arbitrary bytes: JSONL is the
// one trace format cmd/mobiletrace reads from disk, so any input must give
// a trace or an error, never a panic, and an accepted trace written back
// with WriteJSONL must read back equal.
func FuzzReadJSONL(f *testing.F) {
	// An excerpt of `mobilexp -id E8 -seed 7 -trace` output.
	f.Add([]byte(`{"trace":"mobiledist","v":1,"m":10,"n":20,"events":8}
{"t":9723,"k":"transmit","a":300,"b":1,"c":0}
{"t":9724,"k":"search","a":0,"b":0,"c":0}
{"t":9733,"k":"deliver","a":4,"b":4,"c":1}
{"t":51071,"k":"leave","a":5,"b":5,"c":0}
{"t":51121,"k":"transmit","a":305,"b":4,"c":0}
{"t":51125,"k":"join","a":5,"b":6,"c":5}
{"t":51125,"k":"group-inform","a":5,"b":6,"c":0}
{"t":51287,"k":"group-view-update","a":-1,"b":5,"c":9}
`))
	f.Add([]byte(`{"trace":"mobiledist","v":1,"m":0,"n":0,"events":0}` + "\n"))
	f.Add([]byte(`{"trace":"mobiledist","v":1,"m":2,"n":3,"events":1}
{"t":1,"k":"teleport","a":0,"b":0,"c":0}
`))
	f.Add([]byte(`{"trace":"mobiledist","v":2,"m":2,"n":3,"events":0}` + "\n"))
	f.Add([]byte(`{"trace":"mobiledist","v":1,"m":2,"n":3,"events":2}
{"t":3,"k":"leave","a":1,"b":0,"c":0}
{"t":40,"k":"jo`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		got, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("written-back trace does not read: %v", err)
		}
		assertTraceEqual(t, tr, got)
	})
}

package dtn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

func TestSummaryRoundTrip(t *testing.T) {
	cases := [][]BundleID{
		nil,
		{0},
		{1},
		{1, 2, 3},
		{7, 300, 301, 1 << 40},
	}
	for _, ids := range cases {
		enc := EncodeSummary(ids)
		got, err := DecodeSummary(enc)
		if err != nil {
			t.Fatalf("DecodeSummary(%v): %v", ids, err)
		}
		if len(got) == 0 && len(ids) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("round trip %v -> %v", ids, got)
		}
	}
}

func TestSummaryRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      {3, 1, 2},
		"count-too-big":  {200},
		"trailing":       append(EncodeSummary([]BundleID{1, 2}), 0),
		"duplicate":      {2, 5, 0},
		"overflow-delta": {2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1},
	}
	for name, data := range cases {
		if ids, err := DecodeSummary(data); err == nil {
			t.Errorf("%s: decoded %v, want error", name, ids)
		}
	}
}

func TestEncodeSummaryPanicsOnUnsortedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeSummary accepted out-of-order ids")
		}
	}()
	EncodeSummary([]BundleID{3, 2})
}

// decodeSummaryModel is DecodeSummary as it was before the codec learned
// to stream: one loop, the whole vector into a slice. FuzzSummaryVector
// holds the summaryReader (and DecodeSummary, now its slice form) to
// exactly its accept/reject decisions.
func decodeSummaryModel(data []byte) ([]BundleID, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("bad count")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("count exceeds payload")
	}
	ids := make([]BundleID, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, fmt.Errorf("bad delta")
		}
		data = data[k:]
		if i > 0 && d == 0 {
			return nil, fmt.Errorf("duplicate")
		}
		v := prev + d
		if v < prev {
			return nil, fmt.Errorf("overflow")
		}
		ids = append(ids, BundleID(v))
		prev = v
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return ids, nil
}

// readSummaryChunked walks data with the streaming reader, chunk IDs at a
// time, the way handleSummary does.
func readSummaryChunked(data []byte, chunk int) ([]BundleID, error) {
	r := readSummary(data)
	buf := make([]BundleID, chunk)
	var ids []BundleID
	for n := r.read(buf); n > 0; n = r.read(buf) {
		ids = append(ids, buf[:n]...)
	}
	if r.err != nil {
		return nil, r.err
	}
	return ids, nil
}

func sameIDs(a, b []BundleID) bool {
	return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
}

// FuzzSummaryVector checks the codec fixpoint: any input that decodes
// re-encodes to a canonical form that decodes to the same set and
// re-encodes to the same bytes. It also checks the streaming reader: at
// any chunk size it accepts exactly what the reference decoder accepts
// and yields the same IDs.
func FuzzSummaryVector(f *testing.F) {
	f.Add([]byte{0})
	f.Add(EncodeSummary([]BundleID{0}))
	f.Add(EncodeSummary([]BundleID{1, 5, 9}))
	f.Add(EncodeSummary([]BundleID{7, 300, 301, 1 << 40}))
	f.Add([]byte{3, 1, 2})
	f.Add(append(EncodeSummary([]BundleID{1, 2}), 0))
	f.Add([]byte{2, 5, 0})
	f.Add([]byte{2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeSummaryModel(data)
		ids, err := DecodeSummary(data)
		if (err != nil) != (wantErr != nil) || !sameIDs(ids, want) {
			t.Fatalf("DecodeSummary = %v, %v; reference decoder %v, %v", ids, err, want, wantErr)
		}
		for _, chunk := range []int{1, 3, 64} {
			got, gotErr := readSummaryChunked(data, chunk)
			if (gotErr != nil) != (wantErr != nil) || !sameIDs(got, want) {
				t.Fatalf("reader in chunks of %d = %v, %v; reference decoder %v, %v", chunk, got, gotErr, want, wantErr)
			}
		}
		if err != nil {
			return
		}
		enc := EncodeSummary(ids)
		ids2, err := DecodeSummary(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameIDs(ids2, ids) {
			t.Fatalf("decode(encode(ids)) = %v, want %v", ids2, ids)
		}
		if enc2 := EncodeSummary(ids2); !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixpoint: % x vs % x", enc2, enc)
		}
	})
}

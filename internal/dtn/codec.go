package dtn

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Summary-vector codec: the anti-entropy payload exchanged by the
// epidemic strategy. A summary is the sorted set of bundle IDs a store
// holds, encoded as a varint count followed by varint deltas between
// consecutive IDs (first delta is from zero). Sorted-set + delta keeps
// the common dense-ID case near one byte per bundle, and gives the codec
// a canonical form: decode∘encode is the identity on valid encodings,
// which FuzzSummaryVector checks as a fixpoint.
//
// The format is also written and read piecewise (beginSummary and
// appendSummaryID; summaryReader), so a store can encode straight from
// its index and a receiver can merge a vector against its own without
// materialising either; EncodeSummary and DecodeSummary are the slice
// forms of the same.

// beginSummary starts a vector of count IDs on buf. The IDs follow, in
// strictly ascending order, through appendSummaryID.
func beginSummary(buf []byte, count int) []byte {
	return binary.AppendUvarint(buf, uint64(count))
}

// appendSummaryID appends id to a vector whose last ID was prev (0 for
// the first).
func appendSummaryID(buf []byte, prev, id BundleID) []byte {
	return binary.AppendUvarint(buf, uint64(id-prev))
}

// EncodeSummary encodes the bundle-ID set. ids must be sorted ascending
// and duplicate-free (Store.IDs returns exactly that); Encode panics on
// out-of-order input rather than silently producing an undecodable
// vector.
func EncodeSummary(ids []BundleID) []byte {
	buf := beginSummary(make([]byte, 0, 1+len(ids)), len(ids))
	prev := BundleID(0)
	for i, id := range ids {
		if i > 0 && id <= prev {
			panic(fmt.Sprintf("dtn: EncodeSummary ids not strictly ascending at %d", i))
		}
		buf = appendSummaryID(buf, prev, id)
		prev = id
	}
	return buf
}

// summaryReader walks an encoded summary vector in ascending ID order,
// a caller-sized chunk at a time. It rejects what DecodeSummary rejects —
// the rules are here, once — but only as it reaches the fault, so a
// caller must not act on the IDs it has seen until read has returned 0
// with err still nil.
type summaryReader struct {
	data []byte // deltas not yet read
	n    uint64 // IDs the vector claims
	left uint64 // IDs not yet read
	prev uint64
	err  error
}

// readSummary starts a walk of data. n is the number of IDs the vector
// claims, already checked against the payload length.
func readSummary(data []byte) summaryReader {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return summaryReader{err: fmt.Errorf("dtn: summary count: bad varint")}
	}
	data = data[k:]
	if n > uint64(len(data)) {
		// Each delta takes at least one byte; a count beyond the
		// remaining length is corrupt (and bounds what a caller
		// allocates from n).
		return summaryReader{err: fmt.Errorf("dtn: summary count %d exceeds payload", n)}
	}
	return summaryReader{data: data, n: n, left: n}
}

// read decodes up to len(dst) further IDs into dst and returns how many.
// It returns 0 when the vector has ended or is corrupt; r.err says which.
func (r *summaryReader) read(dst []BundleID) int {
	if r.err != nil {
		return 0
	}
	data, prev, left := r.data, r.prev, r.left
	got := 0
	for ; got < len(dst) && left > 0; got++ {
		i := r.n - left
		d, k := binary.Uvarint(data)
		if k <= 0 {
			r.err = fmt.Errorf("dtn: summary delta %d: bad varint", i)
			return 0
		}
		if i > 0 && d == 0 {
			r.err = fmt.Errorf("dtn: summary delta %d: duplicate id", i)
			return 0
		}
		v := prev + d
		if v < prev {
			r.err = fmt.Errorf("dtn: summary delta %d: overflow", i)
			return 0
		}
		dst[got] = BundleID(v)
		data, prev, left = data[k:], v, left-1
	}
	if left == 0 && len(data) != 0 {
		r.err = fmt.Errorf("dtn: summary has %d trailing bytes", len(data))
		return 0
	}
	r.data, r.prev, r.left = data, prev, left
	return got
}

// DecodeSummary decodes a summary vector, returning the IDs in ascending
// order. It rejects truncated input, trailing garbage, duplicate IDs,
// and deltas that would overflow.
func DecodeSummary(data []byte) ([]BundleID, error) {
	ids, err := appendDecoded(nil, data)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// appendDecoded is DecodeSummary onto dst, for a caller that reuses its
// buffer. On error it returns dst with nothing appended.
func appendDecoded(dst []BundleID, data []byte) ([]BundleID, error) {
	r := readSummary(data)
	n := len(dst)
	dst = slices.Grow(dst, int(r.n))[:n+int(r.n)]
	r.read(dst[n:])
	if r.err != nil {
		return dst[:n], r.err
	}
	return dst, nil
}

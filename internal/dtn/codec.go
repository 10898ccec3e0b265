package dtn

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Summary-vector codec: the anti-entropy payload exchanged by the
// epidemic strategy. A summary is a set of bundle IDs cut into 64-ID
// words: word k holds IDs 64k … 64k+63, bit b standing for ID 64k+b. The
// vector lists only the non-zero words, in ascending word-index order:
// a varint word count, then per word a varint delta from the previous
// word index (the first from zero) and the word as 8 little-endian
// bytes. Dense runs of IDs cost about a bit each, and a lone ID costs at
// most 17 bytes, so a vector is never larger than O(IDs) whatever the
// spread of the IDs. The form is canonical — indices strictly ascend and
// no word is zero — so decode∘encode is the identity on the ID set,
// which FuzzSummaryVector checks as a fixpoint.
//
// The word form is also what the anti-entropy merge works in: a store
// keeps the same word view of its residents (Store.wordView), and a
// receiver walks a peer's vector word by word (wordReader) to compute
// what it lacks as peer &^ own, 64 IDs at a time, without expanding
// either side into IDs. EncodeSummary and DecodeSummary are the ID-slice
// forms of the same format; want-lists use them.

// summaryWord is one non-zero word of a summary vector: bit b of bits
// stands for ID idx*64+b.
type summaryWord struct {
	idx, bits uint64
}

const (
	// maxWordIdx bounds a word index: every ID of the word must fit a
	// BundleID.
	maxWordIdx = 1<<58 - 1
	// minWordBytes is the least a word takes on the wire: a one-byte
	// delta and the word itself.
	minWordBytes = 1 + 8
)

// appendWords encodes words, which must be ascending by index and
// non-zero (a store's word view is), as a summary vector onto buf.
func appendWords(buf []byte, words []summaryWord) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	prev := uint64(0)
	for _, w := range words {
		buf = appendWord(buf, prev, w)
		prev = w.idx
	}
	return buf
}

// appendWord appends w to a vector whose last word index was prev (0
// for the first word).
func appendWord(buf []byte, prev uint64, w summaryWord) []byte {
	buf = binary.AppendUvarint(buf, w.idx-prev)
	return binary.LittleEndian.AppendUint64(buf, w.bits)
}

// EncodeSummary encodes the bundle-ID set. ids must be sorted ascending
// and duplicate-free (Store.IDs returns exactly that); Encode panics on
// out-of-order input rather than silently producing an undecodable
// vector. One pass counts the words, a second writes them.
func EncodeSummary(ids []BundleID) []byte {
	words := 0
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			panic(fmt.Sprintf("dtn: EncodeSummary ids not strictly ascending at %d", i))
		}
		if i == 0 || id>>6 != ids[i-1]>>6 {
			words++
		}
	}
	buf := binary.AppendUvarint(make([]byte, 0, 1+minWordBytes*words), uint64(words))
	prev, w := uint64(0), summaryWord{}
	for i, id := range ids {
		idx := uint64(id) >> 6
		if i > 0 && idx != w.idx {
			buf = appendWord(buf, prev, w)
			prev, w.bits = w.idx, 0
		}
		w.idx, w.bits = idx, w.bits|1<<(id&63)
	}
	if len(ids) > 0 {
		buf = appendWord(buf, prev, w)
	}
	return buf
}

// wordReader walks an encoded summary vector one word at a time, in
// ascending index order. It rejects what DecodeSummary rejects — the
// rules are here, once — but only as it reaches the fault, so a caller
// must not act on the words it has seen until next has returned false
// with err still nil.
type wordReader struct {
	data []byte // words not yet read
	left uint64 // words not yet read
	idx  uint64 // index of the last word read
	read bool   // whether a word has been read
	err  error
}

// readWords starts a walk of data.
func readWords(data []byte) wordReader {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return wordReader{err: fmt.Errorf("dtn: summary count: bad varint")}
	}
	data = data[k:]
	if n > uint64(len(data)/minWordBytes) {
		// A count beyond what the payload can hold is corrupt (and
		// bounds what a caller allocates from it).
		return wordReader{err: fmt.Errorf("dtn: summary count %d exceeds payload", n)}
	}
	return wordReader{data: data, left: n}
}

// next returns the next word. It returns ok false when the vector has
// ended or is corrupt; r.err says which.
func (r *wordReader) next() (w summaryWord, ok bool) {
	if r.left == 0 || r.err != nil {
		if r.err == nil && len(r.data) != 0 {
			r.err = fmt.Errorf("dtn: summary has %d trailing bytes", len(r.data))
		}
		return summaryWord{}, false
	}
	d, k := binary.Uvarint(r.data)
	switch {
	case k <= 0:
		r.err = fmt.Errorf("dtn: summary word index: bad varint")
	case r.read && d == 0:
		r.err = fmt.Errorf("dtn: summary word index %d repeated", r.idx)
	case d > maxWordIdx-r.idx:
		r.err = fmt.Errorf("dtn: summary word index overflows after %d", r.idx)
	case len(r.data)-k < 8:
		r.err = fmt.Errorf("dtn: summary word truncated")
	}
	if r.err != nil {
		return summaryWord{}, false
	}
	w = summaryWord{idx: r.idx + d, bits: binary.LittleEndian.Uint64(r.data[k:])}
	if w.bits == 0 {
		r.err = fmt.Errorf("dtn: summary word %d is zero", w.idx)
		return summaryWord{}, false
	}
	r.data, r.left, r.idx, r.read = r.data[k+8:], r.left-1, w.idx, true
	return w, true
}

// appendIDs appends the IDs of w, ascending.
func appendIDs(dst []BundleID, w summaryWord) []BundleID {
	for b := w.bits; b != 0; b &= b - 1 {
		dst = append(dst, BundleID(w.idx<<6|uint64(bits.TrailingZeros64(b))))
	}
	return dst
}

// DecodeSummary decodes a summary vector, returning the IDs in ascending
// order. It rejects truncated input, trailing garbage, zero words,
// repeated word indices, and indices that would overflow.
func DecodeSummary(data []byte) ([]BundleID, error) {
	ids, err := appendDecoded(nil, data)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// appendDecoded is DecodeSummary onto dst, for a caller that reuses its
// buffer. On error it returns dst as it was given, so nothing of a
// corrupt vector is acted on.
func appendDecoded(dst []BundleID, data []byte) ([]BundleID, error) {
	n := len(dst)
	r := readWords(data)
	for w, ok := r.next(); ok; w, ok = r.next() {
		dst = appendIDs(dst, w)
	}
	if r.err != nil {
		return dst[:n], r.err
	}
	return dst, nil
}

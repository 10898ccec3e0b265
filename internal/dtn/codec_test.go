package dtn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mobiledist/internal/engine"
)

func TestSummaryRoundTrip(t *testing.T) {
	cases := [][]BundleID{
		nil,
		{0},
		{1},
		{1, 2, 3},
		{63, 64},
		{7, 300, 301, 1 << 40},
		{1, 66, 131, 196},
		{math.MaxUint64 - 1, math.MaxUint64},
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

// vector hand-assembles a summary vector: count words, then for each
// word a delta and its bits.
func vector(count uint64, words ...uint64) []byte {
	buf := binary.AppendUvarint(nil, count)
	for i := 0; i+1 < len(words); i += 2 {
		buf = binary.AppendUvarint(buf, words[i])
		buf = binary.LittleEndian.AppendUint64(buf, words[i+1])
	}
	return buf
}

func TestSummaryRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"count-too-big":    {200},
		"count-over-words": vector(2, 0, 1),
		"truncated-word":   vector(1, 0, 1)[:6],
		"truncated-delta":  append(vector(2, 0, 1), 0x80),
		"trailing":         append(EncodeSummary([]BundleID{1, 2}), 0),
		"zero-word":        vector(2, 0, 1, 1, 0),
		"zero-first-word":  vector(1, 5, 0),
		"repeated-index":   vector(2, 3, 1, 0, 2),
		"descending-index": vector(2, 3, 1, math.MaxUint64-1, 2),
		"index-overflow":   vector(1, maxWordIdx+1, 1),
		"sum-overflow":     vector(2, maxWordIdx, 1, 1, 1),
		"bad-count-varint": bytes.Repeat([]byte{0xff}, 11),
	}
	for name, data := range cases {
		if ids, err := DecodeSummary(data); err == nil {
			t.Errorf("%s: decoded %v, want error", name, ids)
		}
	}
	// The highest word index is still a valid one.
	if ids, err := DecodeSummary(vector(1, maxWordIdx, 1<<63)); err != nil || len(ids) != 1 || ids[0] != math.MaxUint64 {
		t.Errorf("top word: decoded %v, %v; want [%d]", ids, err, uint64(math.MaxUint64))
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

// decodeWordsModel is the word format's decoder in one plain loop, kept
// as the reference FuzzSummaryVector holds wordReader (and DecodeSummary
// on it) to: the same accept/reject decisions, the same IDs.
func decodeWordsModel(data []byte) ([]BundleID, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("bad count")
	}
	data = data[k:]
	if n > uint64(len(data))/9 {
		return nil, fmt.Errorf("count exceeds payload")
	}
	var ids []BundleID
	idx := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, fmt.Errorf("bad delta")
		}
		if i > 0 && d == 0 {
			return nil, fmt.Errorf("repeated index")
		}
		if d > maxWordIdx || idx+d > maxWordIdx {
			return nil, fmt.Errorf("index overflow")
		}
		idx += d
		data = data[k:]
		if len(data) < 8 {
			return nil, fmt.Errorf("truncated word")
		}
		w := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if w == 0 {
			return nil, fmt.Errorf("zero word")
		}
		for b := uint64(0); b < 64; b++ {
			if w&(1<<b) != 0 {
				ids = append(ids, BundleID(idx*64+b))
			}
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return ids, nil
}

func sameIDs(a, b []BundleID) bool {
	return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
}

// FuzzSummaryVector checks the codec fixpoint: any input that decodes
// re-encodes to a canonical form that decodes to the same set and
// re-encodes to the same bytes. It also holds the decoder to the plain
// reference decoder's accept/reject decisions and IDs.
func FuzzSummaryVector(f *testing.F) {
	f.Add([]byte{0})
	f.Add(EncodeSummary([]BundleID{0}))
	f.Add(EncodeSummary([]BundleID{1, 5, 9}))
	f.Add(EncodeSummary([]BundleID{7, 300, 301, 1 << 40}))
	f.Add(vector(1, 0, 1)[:6])
	f.Add(append(EncodeSummary([]BundleID{1, 2}), 0))
	f.Add(vector(2, 0, 1, 1, 0))
	f.Add(vector(2, 3, 1, 0, 2))
	f.Add(vector(2, maxWordIdx, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeWordsModel(data)
		ids, err := DecodeSummary(data)
		if (err != nil) != (wantErr != nil) || !sameIDs(ids, want) {
			t.Fatalf("DecodeSummary = %v, %v; reference decoder %v, %v", ids, err, want, wantErr)
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

// ---- the anti-entropy merge against its ID-at-a-time oracle ----

// encodeVarintSummary is the summary format the word format replaced: a
// varint count, then varint deltas between consecutive IDs (the first
// from zero).
func encodeVarintSummary(ids []BundleID) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	prev := BundleID(0)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// decodeVarintSummary decodes encodeVarintSummary's format.
func decodeVarintSummary(data []byte) ([]BundleID, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, fmt.Errorf("bad count")
	}
	data = data[k:]
	ids := make([]BundleID, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, k := binary.Uvarint(data)
		if k <= 0 || (i > 0 && d == 0) || prev+d < prev {
			return nil, fmt.Errorf("bad delta %d", i)
		}
		data = data[k:]
		prev += d
		ids = append(ids, BundleID(prev))
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return ids, nil
}

// wantModel is handleSummary as it was before summaries went word by
// word: the peer's varint vector walked one ID at a time against the
// store's ordered index, each ID the store lacks looked up in the
// retired set.
func wantModel(m *Manager, at engine.MSSID, varintVec []byte) []BundleID {
	have := m.stores[at].live()
	peer, err := decodeVarintSummary(varintVec)
	if err != nil {
		return nil
	}
	var want []BundleID
	for _, id := range peer {
		for len(have) > 0 && have[0].id < id {
			have = have[1:]
		}
		if len(have) > 0 && have[0].id == id {
			continue
		}
		if !m.isRetired(id) {
			want = append(want, id)
		}
	}
	return want
}

// bareManager is just enough of a Manager for the anti-entropy handlers:
// its stores, an empty retired set and a context that logs what is sent.
func bareManager(stores ...*Store) (*Manager, *sentLog) {
	log := &sentLog{}
	return &Manager{ctx: log, stores: stores, retired: make(map[BundleID]struct{})}, log
}

// fuzzIDs reads IDs off a bitmap: bit i of set stands for base + i*stride.
func fuzzIDs(base, stride uint64, set []byte) []BundleID {
	var ids []BundleID
	for i := range len(set) * 8 {
		if set[i/8]&(1<<(i%8)) != 0 {
			ids = append(ids, BundleID(base+uint64(i)*stride))
		}
	}
	return ids
}

// FuzzWantModel holds the word merge to the ID-at-a-time merge it
// replaced. Each input draws a peer's ID set, the IDs this station's
// store holds, a retired watermark and sparse retired IDs above it, all
// on one grid (a base anywhere in the ID space, a stride up to 130, so
// the sets run from dense words to one ID per word); then the raw bytes
// are tried as a vector too. handleSummary must send a want-list
// byte-identical to the one the oracle's IDs encode to, and nothing when
// the oracle wants nothing or the vector is corrupt.
func FuzzWantModel(f *testing.F) {
	f.Add(uint64(1), byte(1), []byte{0xff, 0x0f}, []byte{0x0f}, uint16(0), []byte{}, []byte{})
	f.Add(uint64(1), byte(1), []byte{0xff, 0xff, 0xff}, []byte{0x81}, uint16(5), []byte{0x00, 0x42}, []byte{})
	f.Add(uint64(60), byte(3), []byte{0xf7, 0x7f, 0xee}, []byte{0x10, 0x01}, uint16(40), []byte{0, 0, 0x30}, []byte{})
	f.Add(uint64(1), byte(65), []byte{0xff, 0x55}, []byte{0x05}, uint16(200), []byte{0xf0}, []byte{})
	f.Add(uint64(1)<<40, byte(130), []byte{0xaa, 0xff}, []byte{}, uint16(0), []byte{0x0c}, []byte{})
	f.Add(uint64(math.MaxUint64-1<<17), byte(1), []byte{0xff}, []byte{0x0f}, uint16(3), []byte{0x40}, []byte{})
	f.Add(uint64(1), byte(1), []byte{}, []byte{0x03}, uint16(0), []byte{}, vector(2, 0, 0xfe, 1, 1))
	f.Add(uint64(1), byte(1), []byte{}, []byte{}, uint16(0), []byte{}, vector(2, 0, 0xfe, 0, 1))
	f.Fuzz(func(t *testing.T, base uint64, strideByte byte, peerSet, ownSet []byte, upTo uint16, sparseSet, raw []byte) {
		const maxSet = 64 // bytes of bitmap: 512 IDs
		peerSet, ownSet, sparseSet = peerSet[:min(len(peerSet), maxSet)], ownSet[:min(len(ownSet), maxSet)], sparseSet[:min(len(sparseSet), maxSet)]
		stride := uint64(strideByte%130) + 1
		base %= math.MaxUint64 - 8*maxSet*130 // every grid ID fits a BundleID
		own := NewStore(0, 0)
		for _, id := range fuzzIDs(base, stride, ownSet) {
			own.Put(mkBundle(id, 0))
		}
		m, log := bareManager(own)
		if upTo > 0 {
			m.retiredUpTo = BundleID(base + uint64(upTo) - 1)
		}
		for _, id := range fuzzIDs(base, stride, sparseSet) {
			if id > m.retiredUpTo {
				m.retired[id] = struct{}{}
			}
		}
		try := func(vec, varintVec []byte) {
			t.Helper()
			log.sent = log.sent[:0]
			m.handleSummary(0, 1, vec)
			want := wantModel(m, 0, varintVec)
			switch {
			case len(want) == 0 && len(log.sent) != 0:
				t.Fatalf("word merge sent %d messages, oracle wants nothing", len(log.sent))
			case len(want) == 0:
			case len(log.sent) != 1:
				t.Fatalf("word merge sent %d messages, oracle wants %v", len(log.sent), want)
			default:
				if got := log.sent[0].(wantMsg).data; !bytes.Equal(got, EncodeSummary(want)) {
					ids, _ := DecodeSummary(got)
					t.Fatalf("word merge wants %v, oracle %v", ids, want)
				}
			}
		}
		peer := fuzzIDs(base, stride, peerSet)
		try(EncodeSummary(peer), encodeVarintSummary(peer))
		// Raw bytes: a vector DecodeSummary rejects must be dropped
		// whole; one it accepts is the set it decodes to.
		ids, err := DecodeSummary(raw)
		varintVec := []byte{0xff} // a corrupt varint vector: the oracle wants nothing
		if err == nil {
			varintVec = encodeVarintSummary(ids)
		}
		try(raw, varintVec)
	})
}

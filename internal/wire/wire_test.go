package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"mobiledist/internal/sim"
)

// sampleFrames covers every type, negative ids, zero values, and payloads.
func sampleFrames() []Frame {
	return []Frame{
		{Type: THello, Ch: -1, Payload: Hello{Role: RoleMSS, ID: 2, M: 3, N: 5}.Encode()},
		{Type: THello, Ch: -1, Payload: Hello{Role: RoleMH, ID: 0, M: 1, N: 1}.Encode()},
		{Type: THello, Ch: -1, Payload: Hello{Role: RoleMSS, ID: 1, M: 3, N: 5, Gen: 7}.Encode()},
		{Type: TAttach, Ch: 4},
		{Type: TData, Ch: 17, Seq: 0, Hop: 0, Latency: 3, Payload: Envelope{Kind: 1, A: 2, B: 0}.Encode()},
		{Type: TData, Ch: 0, Seq: 1 << 40, Hop: 1, Latency: 4_000_000, Payload: Envelope{Kind: 3, A: 0, B: 7}.Encode()},
		{Type: TDelivered, Ch: 17, Seq: 9},
		{Type: TRetarget, Ch: -1, Payload: Handoff{MH: 3, MSS: 1, Prev: -1, Gen: 12, Addr: "127.0.0.1:4242"}.Encode()},
		{Type: TRetarget, Ch: -1, Payload: Handoff{MH: 3, MSS: -1, Prev: 2, Gen: 13}.Encode()},
		{Type: TAttached, Ch: 3, Seq: 13},
		{Type: TBye, Ch: -1},
		{Type: THeartbeat, Ch: -1, Seq: 42, Hop: 0},
		{Type: THeartbeat, Ch: -1, Seq: 42, Hop: 1},
		{Type: TResync, Ch: -1, Seq: 3},
	}
}

// TestVersionCompatibility pins the version-gate behaviour across the v1→v2
// bump: a v2 peer rejects v1 frames loudly (ErrVersion, on both the slice
// and the stream decoder), instead of misparsing the extended protocol.
func TestVersionCompatibility(t *testing.T) {
	if Version != 2 {
		t.Fatalf("Version = %d; update this test alongside the protocol", Version)
	}
	v2, err := AppendFrame(nil, Frame{Type: THeartbeat, Ch: -1, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), v2...)
	v1[2] = 1 // a v1-era peer's header
	if _, _, err := DecodeFrame(v1); !errors.Is(err, ErrVersion) {
		t.Errorf("DecodeFrame(v1 header): err = %v, want ErrVersion", err)
	}
	r := NewReader(bytes.NewReader(v1))
	if _, err := r.ReadFrame(); !errors.Is(err, ErrVersion) {
		t.Errorf("ReadFrame(v1 header): err = %v, want ErrVersion", err)
	}
	// The v1 Hello blob (no generation field) no longer parses: a skewed
	// cluster fails at handshake rather than silently defaulting Gen.
	v1Hello := []byte{byte(RoleMSS)}
	for _, f := range []int64{2, 3, 5} { // id, m, n — zigzag varints
		v1Hello = appendVarint(v1Hello, f)
	}
	if _, err := DecodeHello(v1Hello); err == nil {
		t.Error("v1 hello blob accepted; want truncated-field error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("AppendFrame(%v): %v", f.Type, err)
		}
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("DecodeFrame(%v): %v", f.Type, err)
		}
		if n != len(b) {
			t.Errorf("%v: consumed %d of %d bytes", f.Type, n, len(b))
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", f.Type, got, f)
		}
	}
}

// TestFrameReencodeByteIdentical pins the canonical-encoding property the
// conformance suite relies on: encode→decode→re-encode is the identity on
// bytes.
func TestFrameReencodeByteIdentical(t *testing.T) {
	rng := sim.NewRNG(42)
	frames := sampleFrames()
	for i := 0; i < 200; i++ {
		frames = append(frames, Frame{
			Type:    TData,
			Ch:      int32(rng.Intn(1 << 16)),
			Seq:     uint64(rng.Intn(1 << 30)),
			Hop:     uint8(rng.Intn(2)),
			Latency: uint32(rng.Intn(1 << 20)),
			Payload: Envelope{Kind: uint8(rng.Intn(3) + 1), A: int32(rng.Intn(64)), B: int32(rng.Intn(64))}.Encode(),
		})
	}
	for _, f := range frames {
		b1, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, _, err := DecodeFrame(b1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		b2, err := AppendFrame(nil, dec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encode not byte-identical for %+v:\n b1=%x\n b2=%x", f, b1, b2)
		}
	}
}

func TestStreamReaderWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var tapped int
	w.Tap = func(raw []byte, f Frame) {
		tapped++
		if _, _, err := DecodeFrame(raw); err != nil {
			t.Errorf("tap saw undecodable bytes: %v", err)
		}
	}
	frames := sampleFrames()
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame(%v): %v", f.Type, err)
		}
	}
	if tapped != len(frames) {
		t.Errorf("tap saw %d frames, want %d", tapped, len(frames))
	}
	r := NewReader(&buf)
	for _, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("read past end: err = %v, want io.EOF", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := AppendFrame(nil, Frame{Type: TData, Ch: 3, Seq: 7, Latency: 2, Payload: Envelope{Kind: 1, A: 1, B: 2}.Encode()})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", append([]byte("XY"), good[2:]...), ErrMagic},
		{"bad version", append([]byte{magic0, magic1, 99}, good[3:]...), ErrVersion},
		{"bad type", append([]byte{magic0, magic1, Version, 200}, good[4:]...), ErrType},
		{"zero type", append([]byte{magic0, magic1, Version, 0}, good[4:]...), ErrType},
		{"truncated body", good[:len(good)-2], ErrTruncated},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Oversize length prefix fails fast, before any allocation.
	huge := []byte{magic0, magic1, Version, byte(TData), 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: err = %v, want ErrTooLarge", err)
	}

	if _, err := AppendFrame(nil, Frame{Type: typeCount}); !errors.Is(err, ErrType) {
		t.Errorf("encode unknown type: err = %v, want ErrType", err)
	}
}

// rawDataFrame hand-encodes a TData frame whose channel id and latency are
// full 64-bit varints, as a peer that is not this encoder could send them.
func rawDataFrame(ch int64, seq, latency uint64) []byte {
	body := appendVarint(nil, ch)
	body = appendUvarint(body, seq)
	body = append(body, 1) // hop
	body = appendUvarint(body, latency)
	body = appendUvarint(body, 0) // no payload
	b := []byte{magic0, magic1, Version, byte(TData)}
	return append(appendUvarint(b, uint64(len(body))), body...)
}

// TestDecodeRejectsFieldsWiderThanTheFrame: Frame.Ch is an int32 and
// Frame.Latency a uint32, but both cross the wire as 64-bit varints. A value
// that does not fit must be a decode error — narrowed, a confirmation for
// channel 2^32+5 would be taken for channel 5.
func TestDecodeRejectsFieldsWiderThanTheFrame(t *testing.T) {
	if f, _, err := DecodeFrame(rawDataFrame(7, 3, 9)); err != nil || f.Ch != 7 || f.Seq != 3 || f.Latency != 9 {
		t.Fatalf("in-range hand-encoded frame: %+v, %v", f, err)
	}
	for name, b := range map[string][]byte{
		"channel id 2^32+5":  rawDataFrame(1<<32+5, 0, 0),
		"channel id -2^31-1": rawDataFrame(-1<<31-1, 0, 0),
		"latency 2^32+9":     rawDataFrame(5, 0, 1<<32+9),
	} {
		if f, _, err := DecodeFrame(b); !errors.Is(err, ErrRange) {
			t.Errorf("DecodeFrame, %s: frame %+v, err %v, want ErrRange", name, f, err)
		}
		if f, err := NewReader(bytes.NewReader(b)).ReadFrame(); !errors.Is(err, ErrRange) {
			t.Errorf("ReadFrame, %s: frame %+v, err %v, want ErrRange", name, f, err)
		}
	}
}

func TestPayloadBlobRoundTrips(t *testing.T) {
	h := Hello{Role: RoleMH, ID: 7, M: 3, N: 9}
	gotH, err := DecodeHello(h.Encode())
	if err != nil || gotH != h {
		t.Errorf("hello round trip: %+v, %v (want %+v)", gotH, err, h)
	}
	if _, err := DecodeHello([]byte{9, 0, 0, 0}); err == nil {
		t.Error("bad role accepted")
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Error("empty hello accepted")
	}

	e := Envelope{Kind: 2, A: 1, B: 5}
	gotE, err := DecodeEnvelope(e.Encode())
	if err != nil || gotE != e {
		t.Errorf("envelope round trip: %+v, %v (want %+v)", gotE, err, e)
	}

	for _, ho := range []Handoff{
		{MH: 3, MSS: 2, Prev: -1, Gen: 1, Addr: "10.0.0.1:9000"},
		{MH: 0, MSS: -1, Prev: 0, Gen: 1 << 50, Addr: ""},
	} {
		got, err := DecodeHandoff(ho.Encode())
		if err != nil || got != ho {
			t.Errorf("handoff round trip: %+v, %v (want %+v)", got, err, ho)
		}
	}
	if _, err := DecodeHandoff([]byte{0}); err == nil {
		t.Error("truncated handoff accepted")
	}
}

// TestAppendFrameAllocFree pins the encoder's allocation contract: with room
// in dst, encoding a data frame allocates nothing — the body length is
// computed, not learned from a scratch copy.
func TestAppendFrameAllocFree(t *testing.T) {
	f := Frame{Type: TData, Ch: 37, Seq: 123_456, Hop: 1, Latency: 3, Payload: Envelope{Kind: 2, A: 3, B: 11}.Encode()}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		buf, _ = AppendFrame(buf[:0], f)
	})
	if allocs != 0 {
		t.Errorf("AppendFrame allocated %v times per frame, want 0", allocs)
	}
}

// TestUvarintLen checks the computed field size against the encoder at
// every 7-bit boundary.
func TestUvarintLen(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(v), len(appendUvarint(nil, v)); got != want {
				t.Errorf("uvarintLen(%#x) = %d, encoder wrote %d bytes", v, got, want)
			}
		}
	}
}

// countingWriter counts Write calls on the stream under a Writer.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriterSplitForm pins the Writer contract: WriteFrame reaches the
// stream once per frame; BufferFrame reaches it only at Flush, taps every
// frame with the bytes WriteFrame would have written, and leaves the same
// stream behind.
func TestWriterSplitForm(t *testing.T) {
	frames := sampleFrames()

	var each countingWriter
	w := NewWriter(&each)
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame(%v): %v", f.Type, err)
		}
	}
	if each.writes != len(frames) {
		t.Errorf("WriteFrame: %d stream writes for %d frames, want one each", each.writes, len(frames))
	}

	var batch countingWriter
	var tapped bytes.Buffer
	w = NewWriter(&batch)
	w.Tap = func(raw []byte, _ Frame) { tapped.Write(raw) }
	for _, f := range frames {
		if err := w.BufferFrame(f); err != nil {
			t.Fatalf("BufferFrame(%v): %v", f.Type, err)
		}
	}
	if batch.writes != 0 {
		t.Errorf("BufferFrame reached the stream %d times before Flush", batch.writes)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if batch.writes != 1 {
		t.Errorf("Flush: %d stream writes, want 1", batch.writes)
	}
	if !bytes.Equal(batch.Bytes(), each.Bytes()) || !bytes.Equal(tapped.Bytes(), each.Bytes()) {
		t.Error("split form wrote or tapped different bytes than WriteFrame")
	}
}

// TestReaderFrameBuffered drives the flush-when-idle predicate: true exactly
// while a whole further frame sits in the buffer, false on an empty buffer
// and on a partial frame (where the next ReadFrame would block).
func TestReaderFrameBuffered(t *testing.T) {
	one, _ := AppendFrame(nil, Frame{Type: TDelivered, Ch: 17, Seq: 9})
	two, _ := AppendFrame(nil, Frame{Type: TData, Ch: 3, Seq: 300, Latency: 2, Payload: Envelope{Kind: 1, A: 1, B: 2}.Encode()})
	for cut := 1; cut < len(two); cut++ {
		stream := append(append(append([]byte(nil), one...), two...), two[:cut]...)
		r := NewReader(bytes.NewReader(stream))
		if r.FrameBuffered() {
			t.Fatal("FrameBuffered before any read filled the buffer")
		}
		if _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		if !r.FrameBuffered() {
			t.Fatalf("cut %d: second frame is whole in the buffer, FrameBuffered = false", cut)
		}
		if _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		if r.FrameBuffered() {
			t.Fatalf("cut %d: only %d of %d bytes of the third frame buffered, FrameBuffered = true", cut, cut, len(two))
		}
	}
}

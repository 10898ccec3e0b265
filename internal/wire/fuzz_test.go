package wire

// Fuzz targets over the decoders: the framing layer reads bytes straight
// off TCP sockets, so arbitrary input must produce a frame or an error —
// never a panic, an out-of-range slice, or a frame the encoder cannot
// reproduce. `make ci` runs these with a short budget (make fuzz-short);
// longer exploration via `go test -fuzz` directly.

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeFrame checks the frame decoders on arbitrary byte strings.
// Invariants on accepted input: the consumed length is sane, re-encoding
// the decoded frame succeeds and decodes back to the same frame (the
// canonical-form fixpoint), and the streaming Reader agrees with the slice
// decoder byte-for-byte.
func FuzzDecodeFrame(f *testing.F) {
	seedFrames := []Frame{
		{Type: THello, Ch: -1, Payload: Hello{Role: RoleMSS, ID: 3, M: 4, N: 16}.Encode()},
		{Type: TData, Ch: 1234, Seq: 77, Hop: 1, Latency: 9, Payload: Envelope{Kind: 2, A: 1, B: 200}.Encode()},
		{Type: TDelivered, Ch: 5, Seq: 1},
		{Type: TRetarget, Ch: -1, Payload: Handoff{MH: 7, MSS: 2, Prev: -1, Gen: 3, Addr: "127.0.0.1:9"}.Encode()},
		{Type: TBye, Ch: -1},
	}
	for _, fr := range seedFrames {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{magic0, magic1, Version, byte(TData), 0x80})
	f.Add([]byte("MW\x01\x03garbage"))
	// Fields wider than the Frame's: rejected, never narrowed.
	f.Add(rawDataFrame(1<<32+5, 1, 2))
	f.Add(rawDataFrame(5, 1, 1<<32+9))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			// Rejected input must also be rejected by the streaming reader
			// (it may block wanting more bytes, but must not yield a frame).
			if sfr, serr := NewReader(bytes.NewReader(data)).ReadFrame(); serr == nil {
				t.Fatalf("DecodeFrame rejected (%v) but ReadFrame accepted %+v", err, sfr)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
		}

		// Accepted input re-encodes, and the re-encoding decodes to the
		// same frame. (Byte equality with the input is not required: the
		// varint reader tolerates non-minimal encodings that the canonical
		// encoder never emits.)
		enc, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		fr2, n2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if !framesEqual(fr, fr2) {
			t.Fatalf("decode/encode/decode fixpoint broken:\n first %+v\nsecond %+v", fr, fr2)
		}

		// The streaming reader must agree with the slice decoder.
		sfr, serr := NewReader(io.LimitReader(bytes.NewReader(data), int64(n))).ReadFrame()
		if serr != nil {
			t.Fatalf("DecodeFrame accepted but ReadFrame rejected: %v", serr)
		}
		if !framesEqual(fr, sfr) {
			t.Fatalf("slice and stream decoders disagree:\n slice %+v\nstream %+v", fr, sfr)
		}
	})
}

// FuzzPayloadDecoders checks the payload-blob decoders (Hello, Envelope,
// Handoff) on arbitrary byte strings: accepted blobs must survive an
// encode→decode round trip unchanged.
func FuzzPayloadDecoders(f *testing.F) {
	f.Add(Hello{Role: RoleMH, ID: 9, M: 4, N: 16}.Encode())
	f.Add(Envelope{Kind: 1, A: -1, B: 3}.Encode())
	f.Add(Handoff{MH: 1, MSS: -1, Prev: 2, Gen: 8, Addr: "host:1"}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	// Fields wider than int32: rejected, never narrowed.
	for _, w := range widePayloads {
		f.Add(w.blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHello(data); err == nil {
			h2, err := DecodeHello(h.Encode())
			if err != nil || h2 != h {
				t.Fatalf("hello round trip: %+v -> %+v (%v)", h, h2, err)
			}
		}
		if e, err := DecodeEnvelope(data); err == nil {
			e2, err := DecodeEnvelope(e.Encode())
			if err != nil || e2 != e {
				t.Fatalf("envelope round trip: %+v -> %+v (%v)", e, e2, err)
			}
		}
		if h, err := DecodeHandoff(data); err == nil {
			h2, err := DecodeHandoff(h.Encode())
			if err != nil || h2 != h {
				t.Fatalf("handoff round trip: %+v -> %+v (%v)", h, h2, err)
			}
		}
	})
}

// framesEqual compares frames treating nil and empty payloads as equal
// (decodeBody leaves a zero-length payload nil).
func framesEqual(a, b Frame) bool {
	return a.Type == b.Type && a.Ch == b.Ch && a.Seq == b.Seq &&
		a.Hop == b.Hop && a.Latency == b.Latency && bytes.Equal(a.Payload, b.Payload)
}

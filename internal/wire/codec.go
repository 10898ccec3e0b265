package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Codec errors.
var (
	// ErrMagic means the stream is not mobiledist wire traffic.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion means the peer speaks a different protocol version.
	ErrVersion = errors.New("wire: version mismatch")
	// ErrType means the frame type byte is out of range.
	ErrType = errors.New("wire: unknown frame type")
	// ErrTruncated means the buffer ended inside a frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTooLarge means a length prefix exceeds MaxFrame.
	ErrTooLarge = errors.New("wire: frame exceeds size bound")
	// ErrRange means a varint field does not fit the Frame field it fills.
	ErrRange = errors.New("wire: field out of range")
)

// zigzag maps signed to unsigned the way encoding/binary varints do.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// uvarintLen is the size of v's minimal uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendFrame appends the canonical encoding of f to dst and returns the
// extended slice. The body length is computed from the field sizes, so the
// body is appended in place and a dst with room makes the call
// allocation-free.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Type == 0 || f.Type >= typeCount {
		return dst, fmt.Errorf("%w: %d", ErrType, uint8(f.Type))
	}
	if len(f.Payload) > MaxFrame/2 {
		return dst, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(f.Payload))
	}
	ch, plen := zigzag(int64(f.Ch)), uint64(len(f.Payload))
	blen := uvarintLen(ch) + uvarintLen(f.Seq) + 1 + uvarintLen(uint64(f.Latency)) + uvarintLen(plen) + len(f.Payload)

	dst = append(dst, magic0, magic1, Version, byte(f.Type))
	dst = appendUvarint(dst, uint64(blen))
	dst = appendUvarint(dst, ch)
	dst = appendUvarint(dst, f.Seq)
	dst = append(dst, f.Hop)
	dst = appendUvarint(dst, uint64(f.Latency))
	dst = appendUvarint(dst, plen)
	return append(dst, f.Payload...), nil
}

// reader is the minimal cursor shared by slice and stream decoding.
type reader struct {
	b   []byte
	off int
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, ErrTruncated
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// int32 reads a varint into an int32 field, rejecting a value the field
// cannot hold: narrowed, channel 2^32+5 would pass for channel 5.
func (r *reader) int32(field string) (int32, error) {
	v, err := r.varint()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %s %d", ErrRange, field, v)
	}
	return int32(v), nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, ErrTruncated
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// decodeBody parses a frame body (everything after the length prefix).
func decodeBody(t Type, b []byte) (Frame, error) {
	r := &reader{b: b}
	f := Frame{Type: t}
	var err error
	if f.Ch, err = r.int32("channel id"); err != nil {
		return f, err
	}
	if f.Seq, err = r.uvarint(); err != nil {
		return f, err
	}
	if f.Hop, err = r.byte(); err != nil {
		return f, err
	}
	lat, err := r.uvarint()
	if err != nil {
		return f, err
	}
	if lat > math.MaxUint32 {
		return f, fmt.Errorf("%w: latency %d", ErrRange, lat)
	}
	f.Latency = uint32(lat)
	plen, err := r.uvarint()
	if err != nil {
		return f, err
	}
	if plen > uint64(MaxFrame/2) {
		return f, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, plen)
	}
	p, err := r.take(int(plen))
	if err != nil {
		return f, err
	}
	if len(p) > 0 {
		f.Payload = append([]byte(nil), p...)
	}
	if r.off != len(b) {
		return f, fmt.Errorf("wire: %d trailing bytes in %v body", len(b)-r.off, t)
	}
	return f, nil
}

// DecodeFrame parses one frame from the start of b, returning the frame and
// the number of bytes consumed.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return Frame{}, 0, ErrMagic
	}
	if b[2] != Version {
		return Frame{}, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, b[2], Version)
	}
	t := Type(b[3])
	if t == 0 || t >= typeCount {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrType, b[3])
	}
	blen, n := binary.Uvarint(b[4:])
	if n <= 0 {
		return Frame{}, 0, ErrTruncated
	}
	if blen > MaxFrame {
		return Frame{}, 0, fmt.Errorf("%w: body %d bytes", ErrTooLarge, blen)
	}
	start := 4 + n
	if uint64(len(b)-start) < blen {
		return Frame{}, 0, ErrTruncated
	}
	f, err := decodeBody(t, b[start:start+int(blen)])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, start + int(blen), nil
}

// Writer frames and writes records onto a stream. WriteFrame flushes, so a
// lone frame is on the socket when it returns. The split form — BufferFrame,
// then Flush — is for callers that know more frames are at hand (a drained
// outbox, a reader with further input buffered) and flush when idle: one
// write(2) then carries the whole run. A caller must never block waiting
// for input with a buffered frame unflushed.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	// Tap, when non-nil, observes every frame with its exact wire bytes
	// before it is written. The byte slice is only valid during the call.
	Tap func(raw []byte, f Frame)
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteFrame encodes, writes and flushes one frame.
func (w *Writer) WriteFrame(f Frame) error {
	if err := w.BufferFrame(f); err != nil {
		return err
	}
	return w.w.Flush()
}

// BufferFrame encodes one frame into the stream buffer without flushing it
// (a full buffer still spills to the stream).
func (w *Writer) BufferFrame(f Frame) error {
	b, err := AppendFrame(w.buf[:0], f)
	if err != nil {
		return err
	}
	w.buf = b[:0]
	if w.Tap != nil {
		w.Tap(b, f)
	}
	_, err = w.w.Write(b)
	return err
}

// Flush writes every buffered frame to the stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads frames from a stream.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// FrameBuffered reports whether a complete frame is already buffered, so
// that the next ReadFrame cannot block on the stream. Writers that flush
// when idle ask it before every read.
func (r *Reader) FrameBuffered() bool {
	b, _ := r.r.Peek(r.r.Buffered())
	if len(b) <= 4 {
		return false
	}
	blen, n := binary.Uvarint(b[4:])
	return n > 0 && uint64(len(b)-4-n) >= blen
}

// ReadFrame blocks for and parses the next frame. Errors are terminal: a
// framing error means the stream lost sync and the connection must drop.
func (r *Reader) ReadFrame() (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return Frame{}, ErrMagic
	}
	if hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, hdr[2], Version)
	}
	t := Type(hdr[3])
	if t == 0 || t >= typeCount {
		return Frame{}, fmt.Errorf("%w: %d", ErrType, hdr[3])
	}
	blen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Frame{}, err
	}
	if blen > MaxFrame {
		return Frame{}, fmt.Errorf("%w: body %d bytes", ErrTooLarge, blen)
	}
	if uint64(cap(r.buf)) < blen {
		r.buf = make([]byte, blen)
	}
	body := r.buf[:blen]
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return decodeBody(t, body)
}

// appendUvarint / appendVarint are the payload-blob encoding primitives.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(dst []byte, v int64) []byte {
	return appendUvarint(dst, zigzag(v))
}

// Encode renders the Hello payload blob.
func (h Hello) Encode() []byte {
	b := make([]byte, 0, 12)
	b = append(b, byte(h.Role))
	b = appendVarint(b, int64(h.ID))
	b = appendVarint(b, int64(h.M))
	b = appendVarint(b, int64(h.N))
	return appendUvarint(b, h.Gen)
}

// DecodeHello parses a Hello payload blob.
func DecodeHello(b []byte) (Hello, error) {
	r := &reader{b: b}
	var h Hello
	role, err := r.byte()
	if err != nil {
		return h, err
	}
	h.Role = Role(role)
	if h.Role != RoleMSS && h.Role != RoleMH {
		return h, fmt.Errorf("wire: unknown role %d", role)
	}
	if h.ID, err = r.int32("hello id"); err != nil {
		return h, err
	}
	if h.M, err = r.int32("hello m"); err != nil {
		return h, err
	}
	if h.N, err = r.int32("hello n"); err != nil {
		return h, err
	}
	if h.Gen, err = r.uvarint(); err != nil {
		return h, err
	}
	if r.off != len(b) {
		return h, errors.New("wire: trailing bytes in hello")
	}
	return h, nil
}

// Encode renders the Envelope payload blob.
func (e Envelope) Encode() []byte {
	b := make([]byte, 0, 8)
	b = append(b, e.Kind)
	b = appendVarint(b, int64(e.A))
	return appendVarint(b, int64(e.B))
}

// DecodeEnvelope parses an Envelope payload blob.
func DecodeEnvelope(b []byte) (Envelope, error) {
	r := &reader{b: b}
	var e Envelope
	k, err := r.byte()
	if err != nil {
		return e, err
	}
	e.Kind = k
	if e.A, err = r.int32("envelope a"); err != nil {
		return e, err
	}
	if e.B, err = r.int32("envelope b"); err != nil {
		return e, err
	}
	if r.off != len(b) {
		return e, errors.New("wire: trailing bytes in envelope")
	}
	return e, nil
}

// Encode renders the Handoff payload blob.
func (h Handoff) Encode() []byte {
	b := make([]byte, 0, 16+len(h.Addr))
	b = appendVarint(b, int64(h.MH))
	b = appendVarint(b, int64(h.MSS))
	b = appendVarint(b, int64(h.Prev))
	b = appendUvarint(b, h.Gen)
	b = appendUvarint(b, uint64(len(h.Addr)))
	return append(b, h.Addr...)
}

// DecodeHandoff parses a Handoff payload blob.
func DecodeHandoff(b []byte) (Handoff, error) {
	r := &reader{b: b}
	var h Handoff
	var err error
	if h.MH, err = r.int32("handoff mh"); err != nil {
		return h, err
	}
	if h.MSS, err = r.int32("handoff mss"); err != nil {
		return h, err
	}
	if h.Prev, err = r.int32("handoff prev"); err != nil {
		return h, err
	}
	if h.Gen, err = r.uvarint(); err != nil {
		return h, err
	}
	alen, err := r.uvarint()
	if err != nil {
		return h, err
	}
	if alen > 4096 {
		return h, fmt.Errorf("%w: address %d bytes", ErrTooLarge, alen)
	}
	a, err := r.take(int(alen))
	if err != nil {
		return h, err
	}
	h.Addr = string(a)
	if r.off != len(b) {
		return h, errors.New("wire: trailing bytes in handoff")
	}
	return h, nil
}

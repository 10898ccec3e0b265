package dgram

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Packet layout — fixed-width header, type-specific body, truncated MAC:
//
//	 0  magic 'M' 'D'
//	 2  version (1)
//	 3  packet type
//	 4  session id, big-endian uint64 (0 until ptAccept assigns one)
//	12  packet sequence, big-endian uint64 (per direction, strictly
//	    monotonic, never reused — retransmits get fresh sequences)
//	20  body...
//	len-16  HMAC-SHA256 tag over bytes [0, len-16), truncated to 16 bytes
//
// Every packet type is authenticated under a direction-specific key
// derived from the token's session key (dirKeys): each side seals under
// its own direction key and opens under the peer's, so an on-path
// attacker reflecting a host's own datagrams back at it fails
// authentication outright — a reflected packet can never reach the
// replay window, the stream state, or the ack handling. ptConnect is
// sealed under the dial-direction key (proving the dialer holds the
// session key, not just a captured token); ptAccept and everything the
// server sends travel under the accept-direction key.
const (
	packetVersion = 1
	headerSize    = 20
	tagSize       = 16

	ptConnect = 1 // body: connect token
	ptAccept  = 2 // body: assigned session id (8) + echoed connect seq (8)
	ptData    = 3 // body: stream offset (8) + stream bytes
	ptAck     = 4 // body: cumulative offset (8) + n (1) + n×(start,end) (16 each)
	ptClose   = 5 // body: empty

	dataOverhead = 8 // stream offset prefix inside a ptData body
	maxAckRanges = 8 // selective ranges carried per ack
	maxPacket    = 64 * 1024
)

var packetMagic = [2]byte{'M', 'D'}

// header is the decoded fixed-width prefix of one packet.
type header struct {
	Type    byte
	Session uint64
	Seq     uint64
}

var (
	errPacketShort   = errors.New("dgram: packet too short")
	errPacketMagic   = errors.New("dgram: bad packet magic")
	errPacketVersion = errors.New("dgram: unsupported packet version")
	errPacketType    = errors.New("dgram: unknown packet type")
	errPacketMAC     = errors.New("dgram: packet authentication failed")
)

// appendHeader appends the fixed-width header for h to dst.
func appendHeader(dst []byte, h header) []byte {
	dst = append(dst, packetMagic[0], packetMagic[1], packetVersion, h.Type)
	var be [16]byte
	binary.BigEndian.PutUint64(be[0:8], h.Session)
	binary.BigEndian.PutUint64(be[8:16], h.Seq)
	return append(dst, be[:]...)
}

// decodeHeader parses the fixed-width prefix of pkt without touching the
// MAC; body is the remainder of pkt before the tag when withTag is true.
func decodeHeader(pkt []byte, withTag bool) (header, []byte, error) {
	min := headerSize
	if withTag {
		min += tagSize
	}
	if len(pkt) < min || len(pkt) > maxPacket {
		return header{}, nil, errPacketShort
	}
	if pkt[0] != packetMagic[0] || pkt[1] != packetMagic[1] {
		return header{}, nil, errPacketMagic
	}
	if pkt[2] != packetVersion {
		return header{}, nil, fmt.Errorf("%w: %d", errPacketVersion, pkt[2])
	}
	h := header{
		Type:    pkt[3],
		Session: binary.BigEndian.Uint64(pkt[4:12]),
		Seq:     binary.BigEndian.Uint64(pkt[12:20]),
	}
	if h.Type < ptConnect || h.Type > ptClose {
		return header{}, nil, fmt.Errorf("%w: %d", errPacketType, h.Type)
	}
	body := pkt[headerSize:]
	if withTag {
		body = body[:len(body)-tagSize]
	}
	return h, body, nil
}

var (
	dirLabelDial   = []byte("mobiledist-dgram-dir-dial\x00")
	dirLabelAccept = []byte("mobiledist-dgram-dir-accept\x00")
)

// dirKeys derives the two per-direction sealing keys from the token's
// session key. Both directions sharing one sealing key would let an
// attacker reflect a host's own datagrams back at it (they authenticate,
// and their sequences are fresh in the victim's inbound replay window);
// with split keys a reflected packet fails the MAC.
func dirKeys(key []byte) (dial, accept []byte) {
	d := hmac.New(sha256.New, key)
	d.Write(dirLabelDial)
	a := hmac.New(sha256.New, key)
	a.Write(dirLabelAccept)
	return d.Sum(nil), a.Sum(nil)
}

// sealPacket builds one authenticated datagram: header + body + tag.
func sealPacket(key []byte, h header, body []byte) []byte {
	pkt := appendHeader(make([]byte, 0, headerSize+len(body)+tagSize), h)
	pkt = append(pkt, body...)
	mac := hmac.New(sha256.New, key)
	mac.Write(pkt)
	return append(pkt, mac.Sum(nil)[:tagSize]...)
}

// openPacket verifies pkt's tag under key and returns its header and body.
func openPacket(key, pkt []byte) (header, []byte, error) {
	h, body, err := decodeHeader(pkt, true)
	if err != nil {
		return header{}, nil, err
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(pkt[:len(pkt)-tagSize])
	want := mac.Sum(nil)[:tagSize]
	if !hmac.Equal(want, pkt[len(pkt)-tagSize:]) {
		return header{}, nil, errPacketMAC
	}
	return h, body, nil
}

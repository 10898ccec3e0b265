package dgram

import (
	"bytes"
	"testing"
	"time"
)

// FuzzPacketHeader feeds hostile bytes to the packet decoders: they must
// never panic, and anything that decodes must survive a
// decode∘encode∘decode fixpoint (the re-encoding is canonical).
func FuzzPacketHeader(f *testing.F) {
	key := []byte("fuzz-session-key")
	f.Add(sealPacket(key, header{Type: ptData, Session: 7, Seq: 42}, []byte("payload")))
	f.Add(sealPacket(key, header{Type: ptConnect, Session: 0, Seq: 0}, nil))
	f.Add(appendHeader(nil, header{Type: ptAck, Session: 1 << 60, Seq: 1 << 40}))
	f.Add([]byte{'M', 'D', packetVersion, ptClose})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The MAC-checked path must not panic on anything.
		if h, body, err := openPacket(key, data); err == nil {
			again := sealPacket(key, h, body)
			if !bytes.Equal(again, data) {
				t.Fatalf("sealed packet not a fixpoint: %x vs %x", again, data)
			}
		}
		// The bare header decoder: re-encoding what decoded must be
		// byte-identical (the header is fixed-width, hence canonical).
		h, body, err := decodeHeader(data, false)
		if err != nil {
			return
		}
		enc := append(appendHeader(nil, h), body...)
		if !bytes.Equal(enc, data) {
			t.Fatalf("header re-encode differs: %x vs %x", enc, data)
		}
		h2, body2, err := decodeHeader(enc, false)
		if err != nil || h2 != h || !bytes.Equal(body2, body) {
			t.Fatalf("decode∘encode∘decode not a fixpoint: %v %+v", err, h2)
		}
	})
}

// FuzzConnectToken feeds hostile bytes to the token validator and payload
// decoder: no panics, and decoded payloads re-encode canonically.
func FuzzConnectToken(f *testing.F) {
	secret := []byte("fuzz-secret")
	now := time.Now()
	good, _, _ := Mint(secret, TokenInfo{
		Role: 1, ID: 3, Gen: 2, Expiry: now.Add(time.Hour),
		Addrs: []string{"127.0.0.1:9", "[::1]:10"},
	})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{tokenVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Validation of arbitrary bytes must never panic.
		_, _, _ = Validate(secret, data, "127.0.0.1:9", now)

		info, nonce, err := decodeTokenPayload(data)
		if err != nil {
			return
		}
		enc := appendTokenPayload(nil, info, nonce)
		info2, nonce2, err := decodeTokenPayload(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if nonce2 != nonce || info2.Role != info.Role || info2.ID != info.ID ||
			info2.Gen != info.Gen || !info2.Expiry.Equal(info.Expiry) ||
			len(info2.Addrs) != len(info.Addrs) {
			t.Fatalf("decode∘encode∘decode not a fixpoint: %+v vs %+v", info2, info)
		}
		for i := range info.Addrs {
			if info2.Addrs[i] != info.Addrs[i] {
				t.Fatalf("addr %d changed across re-encode", i)
			}
		}
		// The canonical re-encoding is itself a fixpoint.
		if enc2 := appendTokenPayload(nil, info2, nonce2); !bytes.Equal(enc2, enc) {
			t.Fatalf("canonical encoding unstable: %x vs %x", enc2, enc)
		}
	})
}

// FuzzSessionMAC round-trips a run of packets through one session's
// reused MACs: each seals byte for byte as a freshly keyed MAC does, the
// peer's reused open MAC authenticates it, a tampered copy and the
// sender's own open MAC do not — and a failure leaves the reused MACs
// fit for the next packet.
func FuzzSessionMAC(f *testing.F) {
	f.Add([]byte("\x02\x10accept body....\x03\x05data!\x04\x00\x05\x00"))
	f.Add([]byte("\x03\xffa long data packet that runs out early"))
	f.Add([]byte{})

	dialKey, acceptKey := dirKeys([]byte("fuzz-session-key"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seal, peerOpen, ownOpen := newSessionMAC(dialKey), newSessionMAC(dialKey), newSessionMAC(acceptKey)
		for seq := uint64(0); len(data) >= 2; seq++ {
			h := header{Type: ptConnect + data[0]%ptClose, Session: seq * 0x9e3779b97f4a7c15, Seq: seq}
			n := min(int(data[1]), len(data)-2)
			body := data[2 : 2+n]
			data = data[2+n:]

			pkt := seal.sealBody(h, body)
			if want := sealPacket(dialKey, h, body); !bytes.Equal(pkt, want) {
				t.Fatalf("seq %d: reused MAC sealed %x, one-off %x", seq, pkt, want)
			}
			if _, _, err := ownOpen.open(pkt); err == nil {
				t.Fatalf("seq %d: sender's own open MAC accepted its packet", seq)
			}
			bad := append([]byte(nil), pkt...)
			bad[int(seq)%len(bad)] ^= 1
			if _, _, err := peerOpen.open(bad); err == nil {
				t.Fatalf("seq %d: tampered packet accepted", seq)
			}
			gh, gbody, err := peerOpen.open(pkt)
			if err != nil || gh != h || !bytes.Equal(gbody, body) {
				t.Fatalf("seq %d: peer open = %+v %x, %v", seq, gh, gbody, err)
			}
		}
	})
}

package dgram

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"mobiledist/internal/obs"
)

// Dial establishes a datagram session to addr, proving possession of the
// session key derived from token (see Mint). The connect is retransmitted
// with capped backoff until the server's accept arrives, MaxRetries is
// exhausted, or the session fails (a closed port answers the first connect
// with an ICMP refusal, which ends the socket's read loop).
func Dial(addr string, token, key []byte, cfg Config) (*Conn, error) {
	cfg = cfg.withDefaults()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	c := newConn(cfg, key, sideDial, func(pkt []byte) error {
		_, err := sock.Write(pkt)
		return err
	}, sock.LocalAddr(), raddr)
	c.sock = sock

	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		sock.Close()
		return nil, err
	}
	c.dialNonce = binary.BigEndian.Uint64(nonce[:])
	body := make([]byte, 8+len(token))
	binary.BigEndian.PutUint64(body, c.dialNonce)
	copy(body[8:], token)

	go c.readLoop()
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.established {
			c.mu.Unlock()
			break
		}
		if attempt >= cfg.MaxRetries {
			c.failLocked(fmt.Errorf("dgram: connect to %s: no accept after %d attempts", addr, attempt))
			c.mu.Unlock()
			c.teardown()
			return nil, fmt.Errorf("dgram: connect to %s: no accept after %d attempts", addr, attempt)
		}
		c.sendPacketLocked(ptConnect, body)
		c.mu.Unlock()
		select {
		case <-c.accepted:
		case <-c.done:
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, fmt.Errorf("dgram: connect to %s: %w", addr, err)
		case <-time.After(c.rto(attempt)):
		}
	}
	c.start()
	c.trace(obs.EvSessionEstablished, sideDial, 0)
	return c, nil
}

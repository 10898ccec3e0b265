package netrt

import (
	"fmt"
	"net"
	"time"

	"mobiledist/internal/dgram"
	"mobiledist/internal/wire"
)

// The transport seam: every socket the runtime opens — the hub's listener,
// the stations' mesh and wireless listeners, and all dialling peers — goes
// through one of these, so the whole cluster runs over plain TCP or over
// authenticated UDP datagram sessions (internal/dgram) by flipping one
// config field. Both yield net.Conn/net.Listener carrying internal/wire
// frames, so nothing above this seam changes.
const (
	// TransportTCP runs every cluster connection over plain TCP streams.
	TransportTCP = "tcp"
	// TransportUDP runs every cluster connection over internal/dgram:
	// HMAC-authenticated UDP sessions with replay windows, fragmentation,
	// and selective retransmit.
	TransportUDP = "udp"
)

// DefaultSecret is the development cluster secret used when no explicit
// secret is configured. It offers no confidentiality against anyone who can
// read this repository; production deployments must set their own.
const DefaultSecret = "mobiledist-insecure-dev-secret"

// dialTokenTTL bounds per-dial minted connect tokens. Reconnects mint
// fresh tokens, so the window only needs to cover one handshake.
const dialTokenTTL = time.Minute

// transport abstracts how cluster processes reach each other. advertise is
// the address dialers were told to dial (a nemesis proxy, a NAT mapping);
// the UDP listener accepts connect tokens bound to it in addition to its
// own socket address. TCP ignores it.
type transport interface {
	name() string
	dial(addr string) (net.Conn, error)
	listen(addr, advertise string) (net.Listener, error)
}

// newTransport builds the substrate named by kind ("" means TCP). role and
// id identify the dialling process in per-dial minted UDP connect tokens;
// listen-only users (the hub) may pass zero values.
func newTransport(kind, secret string, role wire.Role, id int) (transport, error) {
	switch kind {
	case "", TransportTCP:
		return tcpTransport{}, nil
	case TransportUDP:
		return &udpTransport{secret: secretBytes(secret), role: role, id: id}, nil
	default:
		return nil, fmt.Errorf("netrt: unknown transport %q", kind)
	}
}

// secretBytes resolves the configured cluster secret (empty: the insecure
// development default).
func secretBytes(s string) []byte {
	if s == "" {
		s = DefaultSecret
	}
	return []byte(s)
}

// tcpTransport is the default substrate: plain TCP streams.
type tcpTransport struct{}

func (tcpTransport) name() string                       { return TransportTCP }
func (tcpTransport) dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
func (tcpTransport) listen(addr, _ string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// udpTransport carries cluster connections over internal/dgram sessions.
// Without a static token it mints a fresh connect token per dial, bound to
// the dialled address with a short TTL; with one (out-of-band bootstrap,
// see ClientConfig.Token) every dial presents the same token, which must
// have been minted for every address the process may roam to.
type udpTransport struct {
	secret []byte
	role   wire.Role
	id     int

	// token/key, when set, are the static credential (useStaticBlob).
	token, key []byte

	cfg dgram.Config
}

func (t *udpTransport) name() string { return TransportUDP }

func (t *udpTransport) dial(addr string) (net.Conn, error) {
	token, key := t.token, t.key
	if token == nil {
		var err error
		token, key, err = dgram.Mint(t.secret, dgram.TokenInfo{
			Role:   byte(t.role),
			ID:     int64(t.id),
			Expiry: time.Now().Add(dialTokenTTL),
			Addrs:  []string{addr},
		})
		if err != nil {
			return nil, err
		}
	}
	return dgram.Dial(addr, token, key, t.cfg)
}

func (t *udpTransport) listen(addr, advertise string) (net.Listener, error) {
	l, err := dgram.Listen(addr, t.secret, t.cfg)
	if err != nil {
		return nil, err
	}
	if advertise != "" {
		l.SetAdvertise(advertise)
	}
	return l, nil
}

// useStaticBlob installs an out-of-band credential blob (token || key, as
// printed by mobilenode -mint-token): the final KeySize bytes are the
// derived session key, the rest the connect token.
func (t *udpTransport) useStaticBlob(blob []byte) error {
	if len(blob) <= dgram.KeySize {
		return fmt.Errorf("netrt: token blob too short (%d bytes)", len(blob))
	}
	t.token = append([]byte(nil), blob[:len(blob)-dgram.KeySize]...)
	t.key = append([]byte(nil), blob[len(blob)-dgram.KeySize:]...)
	return nil
}

// setAdvertise forwards the publicly dialled address to a dgram listener
// bound earlier (the loopback launcher learns the wrapped hub address only
// after the socket exists). TCP listeners ignore it.
func setAdvertise(ln net.Listener, addr string) {
	if dl, ok := ln.(*dgram.Listener); ok {
		dl.SetAdvertise(addr)
	}
}

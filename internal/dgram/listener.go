package dgram

import (
	"crypto/rand"
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/obs"
)

// maxUsedDials triggers a sweep of expired usedDials entries before a new
// one is recorded. Growth is bounded by the rate of successful dials
// within one token TTL (minting needs the cluster secret), so this is a
// housekeeping threshold, not a hard cap.
const maxUsedDials = 4096

// Listener accepts datagram sessions on one shared UDP socket,
// demultiplexing inbound packets to sessions by source address. It
// implements net.Listener.
type Listener struct {
	cfg    Config
	secret []byte
	pc     *net.UDPConn

	// advertise is the address connect tokens must be bound to (the
	// address dialers were told to dial, e.g. a nemesis proxy in front of
	// this socket). Empty means the socket's own address.
	advertise atomic.Value // string

	mu       sync.Mutex
	sessions map[netip.AddrPort]*Conn
	closed   bool

	// usedDials records the (session key, dial nonce) pair of every
	// established session until its token expires. A captured ptConnect
	// replayed within the token TTL still re-validates; without this
	// cache it would displace the live session (a pure-replay
	// session-kill) or, from other spoofed source addresses, mint
	// unlimited zombie sessions. A genuine re-dial mints a fresh random
	// dial nonce, so it never collides with a recorded pair.
	usedDials map[string]time.Time // dialID -> token expiry; under mu

	tokensRejected uint64 // under mu
	badPackets     uint64 // under mu

	acceptCh  chan *Conn
	done      chan struct{}
	closeOnce sync.Once
}

// Listen binds a datagram listener on addr that admits sessions whose
// connect tokens validate under secret.
func Listen(addr string, secret []byte, cfg Config) (*Listener, error) {
	cfg = cfg.withDefaults()
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		cfg:       cfg,
		secret:    append([]byte(nil), secret...),
		pc:        pc,
		sessions:  make(map[netip.AddrPort]*Conn),
		usedDials: make(map[string]time.Time),
		acceptCh:  make(chan *Conn, acceptBacklog),
		done:      make(chan struct{}),
	}
	l.advertise.Store("")
	go l.readLoop()
	return l, nil
}

// SetAdvertise records the public address dialers use to reach this
// listener; connect tokens bound to it are accepted in addition to the
// socket's own address. Needed when a proxy (or NAT) fronts the socket.
func (l *Listener) SetAdvertise(addr string) { l.advertise.Store(addr) }

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.pc.LocalAddr() }

// Accept implements net.Listener, yielding established sessions.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener: sessions are closed (best-effort close
// notifications go out first), then the socket.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.mu.Lock()
		l.closed = true
		conns := make([]*Conn, 0, len(l.sessions))
		for _, c := range l.sessions {
			conns = append(conns, c)
		}
		l.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		l.pc.Close()
	})
	return nil
}

// Stats reports listener-level rejection counters: datagrams dropped
// before any session saw them, and refused connect tokens.
func (l *Listener) Stats() (badPackets, tokensRejected uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.badPackets, l.tokensRejected
}

// Sessions snapshots the live sessions' datagram counters.
func (l *Listener) Sessions() []Stats {
	l.mu.Lock()
	conns := make([]*Conn, 0, len(l.sessions))
	for _, c := range l.sessions {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	out := make([]Stats, 0, len(conns))
	for _, c := range conns {
		out = append(out, c.Stats())
	}
	return out
}

func (l *Listener) noteBadPacket() {
	l.mu.Lock()
	l.badPackets++
	l.mu.Unlock()
}

func (l *Listener) readLoop() {
	buf := make([]byte, maxPacket)
	for {
		n, raddr, err := l.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-l.done:
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		pkt := buf[:n]
		// A dual-stack socket reports IPv4 peers as mapped addresses;
		// sessions are keyed on the plain form.
		raddr = netip.AddrPortFrom(raddr.Addr().Unmap(), raddr.Port())
		l.mu.Lock()
		c := l.sessions[raddr]
		l.mu.Unlock()
		if c != nil {
			if h, _, herr := decodeHeader(pkt, true); herr == nil && h.Type == ptConnect {
				if c.handleConnectRetry(pkt) {
					continue
				}
				// Not this session's handshake: treat as a fresh re-dial
				// from the same source address.
				l.handleConnect(pkt, raddr, c)
				continue
			}
			c.handlePacket(pkt)
			continue
		}
		l.handleConnect(pkt, raddr, nil)
	}
}

// handleConnect validates a connect packet from an unknown (or
// re-dialing) source and, when it passes, establishes a session, sends
// the accept and queues the session for Accept.
func (l *Listener) handleConnect(pkt []byte, peer netip.AddrPort, replace *Conn) {
	h, body, err := decodeHeader(pkt, true)
	if err != nil || h.Type != ptConnect || len(body) < 8 {
		l.noteBadPacket()
		return
	}
	dialNonce := binary.BigEndian.Uint64(body[:8])
	token := body[8:]
	now := time.Now()
	adv, _ := l.advertise.Load().(string)
	own := l.pc.LocalAddr().String()
	info, key, err := Validate(l.secret, token, own, now)
	if err != nil && adv != "" && adv != own {
		info, key, err = Validate(l.secret, token, adv, now)
	}
	if err != nil {
		l.mu.Lock()
		l.tokensRejected++
		l.mu.Unlock()
		return
	}
	// The packet MAC under the dial-direction key proves the dialer holds
	// the session key, not just a captured token.
	dialKey, _ := dirKeys(key)
	if _, _, err := openPacket(dialKey, pkt); err != nil {
		l.noteBadPacket()
		return
	}
	// A (key, dial nonce) pair that already opened a session marks this
	// connect as a replay of a captured datagram, not a fresh dial.
	dialID := string(key) + string(body[:8])
	l.mu.Lock()
	if exp, ok := l.usedDials[dialID]; ok && now.Before(exp) {
		l.badPackets++
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()

	var sidBytes [8]byte
	if _, err := rand.Read(sidBytes[:]); err != nil {
		return
	}
	sid := binary.BigEndian.Uint64(sidBytes[:])
	c := newConn(l.cfg, key, sideAccept, func(p []byte) error {
		_, err := l.pc.WriteToUDPAddrPort(p, peer)
		return err
	}, l.pc.LocalAddr(), net.UDPAddrFromAddrPort(peer))
	c.sid = sid
	c.established = true
	c.dialNonce = dialNonce
	c.acceptBody = make([]byte, 16)
	binary.BigEndian.PutUint64(c.acceptBody, sid)
	binary.BigEndian.PutUint64(c.acceptBody[8:], dialNonce)
	c.onClose = func() {
		l.mu.Lock()
		if l.sessions[peer] == c {
			delete(l.sessions, peer)
		}
		l.mu.Unlock()
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	select {
	case l.acceptCh <- c:
	default:
		l.mu.Unlock()
		return // backlog full: drop; the dialer retries (same dial nonce, still unused)
	}
	l.sessions[peer] = c
	// Record the pair only once the session is installed, so a dialer
	// whose first attempt hit a full backlog can retry the same connect.
	if len(l.usedDials) >= maxUsedDials {
		for k, exp := range l.usedDials {
			if !now.Before(exp) {
				delete(l.usedDials, k)
			}
		}
	}
	l.usedDials[dialID] = info.Expiry
	l.mu.Unlock()

	if replace != nil && replace != c {
		replace.mu.Lock()
		replace.failLocked(ErrSessionDead)
		replace.mu.Unlock()
		replace.teardown()
	}

	c.mu.Lock()
	c.replay.admit(h.Seq)
	c.stats.PacketsReceived++
	c.sendPacketLocked(ptAccept, c.acceptBody)
	c.mu.Unlock()
	c.start()
	c.trace(obs.EvSessionEstablished, sideAccept, 0)
}

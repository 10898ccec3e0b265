// Package netrt is the network runtime of the two-tier model: it binds the
// shared network engine (internal/engine) to real TCP connections, so the
// MSS tier runs as separate relay nodes on a wired mesh and each MH
// reaches its serving station over its own wireless connection — the
// deployment the paper describes, on actual sockets.
//
// Architecture. The engine cannot be sharded across processes — its
// Substrate seam hands the transport opaque delivery records — so the
// runtime splits the model plane from the data plane:
//
//   - the hub (this file) is internal/rt's Host — the engine, its single
//     executor goroutine, timers, Do/WaitIdle and the mobility surface —
//     plus what sockets add: a listener and one peer per station and mobile
//     host, one send window per channel, liveness with generation-fenced
//     resync, and client retargeting. Every TransmitRec parks the delivery
//     record at the end of its channel's window — its position there is its
//     sequence number — and ships a TData frame on a physical journey over
//     TCP;
//   - MSS relay nodes (node.go) carry the wired tier: a TData for wired
//     channel (i,j) travels hub → node i, is due its link latency after it
//     entered node i's per-channel pipe, crosses the mesh connection to
//     node j, and node j confirms with TDelivered. Downlinks wait at the
//     serving node and cross that node's wireless connection to the MH
//     client;
//   - MH clients (client.go) carry the uplinks: the frame travels hub →
//     client, waits out its latency, and crosses the client's current
//     wireless connection into whatever cell serves it — so Cwireless
//     traffic always crosses a real link, and handoffs physically re-dial;
//   - a link's latency is a due time, not a sleep: a pipe handles its
//     frames strictly in order and waits only while the head's due time
//     (arrival + latency × tick) is still ahead, so latencies of queued
//     frames overlap exactly as engine.FIFOClock's arrival clamp makes
//     them on the simulator and rt's pipes do in-process. Socket writers
//     flush when idle (peer.writeLoop drains its outbox into one write;
//     the wireless echo paths flush when their reader has no further
//     frame buffered), so a hop costs its sockets and nothing else;
//   - when the hub receives TDelivered (ch, seq) it marks that window entry
//     confirmed and releases the window's confirmed prefix — so records
//     leave in per-channel sequence order, and a confirmation that arrives
//     early waits in place. The window, not TCP alone, is the model's
//     per-channel FIFO guarantee; duplicate confirmations (possible during
//     connection loss, which both ends resolve at-least-once) fall below
//     the window and are dropped, and one for a sequence never sent falls
//     outside it and is counted (stray_confirms in /status).
//
// Model-level semantics are therefore identical to internal/rt: a
// transmission, once made, always resolves — a frame radioed into a cell
// the MH already left is confirmed by the node, matching the model, whose
// record interpreter re-checks MH state at delivery time. The fault injector
// (internal/faults) and the observability seam wrap the substrate exactly
// as on the other runtimes, so loss is modelled, never accidental.
//
// Lifecycle: build (NewSystem, Register — single-threaded), Start, interact
// via Do, then WaitIdle / Stop. NewSystem listens immediately, so nodes and
// clients may connect before Start; their traffic queues.
package netrt

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/engine"
	"mobiledist/internal/rt"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// Config describes the hub of a socket-backed two-tier network: rt's
// configuration (the model parameters, Seed, Tick, Faults) plus the cluster
// concerns that only exist here.
type Config struct {
	rt.Config

	// Transport selects the substrate every cluster connection runs over:
	// TransportTCP (default, also "") or TransportUDP — authenticated
	// datagram sessions via internal/dgram.
	Transport string
	// Secret is the shared cluster secret UDP connect tokens are minted
	// and validated under (empty: the insecure development default).
	// Ignored by the TCP transport.
	Secret string
	// ListenAddr is the hub's listen address ("127.0.0.1:0" default).
	ListenAddr string
	// MSSAddrs are the relay nodes' listen addresses, indexed by MSS id.
	// The hub hands them to MH clients in TRetarget frames, so they must be
	// reachable from the clients. Required (length M).
	MSSAddrs []string
	// FrameTap, when non-nil, observes every frame the hub writes, with its
	// exact wire bytes (called on writer goroutines; the slice is only
	// valid during the call). Test instrumentation for codec round-trip
	// checks.
	FrameTap func(raw []byte, f wire.Frame)
	// WrapAddr, when non-nil, is given every address a cluster process will
	// dial — the hub address handed to nodes and clients ("hub") and each
	// station address ("mss<i>") handed to mesh peers and retargeted
	// clients — and returns the address to dial instead. This is the seam
	// where the socket nemesis (internal/nemesis) interposes its proxies;
	// listeners stay bound to the raw addresses. Only StartLoopback applies
	// it.
	WrapAddr func(name, addr string) string

	// HeartbeatEvery is the hub's liveness ping interval (0: 25ms default;
	// negative: heartbeats disabled — peers are never suspected or declared
	// dead).
	HeartbeatEvery time.Duration
	// SuspectAfter is the number of consecutive unanswered heartbeats
	// before a peer is marked suspect (0: default 3).
	SuspectAfter int
	// DeadAfter is how long a peer may go without answering a heartbeat
	// before it is declared dead — its outbox clears and deliveries to it
	// park until a resync (0: default 500ms).
	DeadAfter time.Duration
	// DialBackoffMin and DialBackoffMax bound every dialling peer's
	// reconnect backoff (zero: 5ms/250ms defaults). They propagate into the
	// ClusterConfig StartLoopback builds, and cmd/mobilenode exposes them
	// via MOBILEDIST_DIAL_BACKOFF_MIN/MAX.
	DialBackoffMin, DialBackoffMax time.Duration
}

// DefaultConfig returns a hub configuration for m stations and n hosts,
// with the same model parameters as rt.DefaultConfig. MSSAddrs must still
// be filled in (StartLoopback does).
func DefaultConfig(m, n int) Config {
	return Config{Config: rt.DefaultConfig(m, n), ListenAddr: "127.0.0.1:0"}
}

// pendKey identifies one in-flight transmission in a relay's or a client's
// written-but-unechoed set.
type pendKey struct {
	ch  int32
	seq uint64
}

// pendEntry is one parked in-flight transmission: the delivery record, the
// drawn latency (kept so a resync replay can rebuild the exact TData frame)
// and whether its confirmation has arrived.
type pendEntry struct {
	rec       *engine.DeliveryRec
	latency   uint32
	confirmed bool
}

// hubChan is the hub's state of one channel, its send window: win[i] is the
// transmission with sequence number next+i, parked until it and everything
// before it is confirmed, so the next number to assign is next+len(win).
// envelope is the payload of the channel's TData frames.
type hubChan struct {
	next     uint64
	win      []pendEntry
	envelope []byte
}

// frame builds the TData frame of win[i].
func (c *hubChan) frame(ch, i int) wire.Frame {
	return wire.Frame{
		Type:    wire.TData,
		Ch:      int32(ch),
		Seq:     c.next + uint64(i),
		Latency: c.win[i].latency,
		Payload: c.envelope,
	}
}

// System is the hub: the shared host bound to the socket substrate. The
// lifecycle, calling conventions and mobility surface are rt.Host's, so any
// algorithm in this repository runs on it unmodified.
type System struct {
	*rt.Host
	cfg      Config
	layout   engine.ChannelLayout
	stopOnce sync.Once

	ln       net.Listener
	wg       sync.WaitGroup
	mssPeers []*peer
	mhPeers  []*peer

	// Executor-only transmission state. Parked records are stepped (and
	// freed) by the bound sink on the executor only; the record pool is
	// not thread-safe, so stopped paths drop records rather than free them.
	// Entries are nil until a channel's first transmission.
	chans *engine.ChanTable[*hubChan]
	rtGen uint64

	// deadMSS / deadMH mirror the liveness tracker's dead verdicts onto the
	// executor (set and cleared via executor tasks, read by TransmitRec):
	// transmissions toward a dead peer park in their window without queuing
	// a frame, and the resync replay re-sends them.
	deadMSS []bool
	deadMH  []bool

	// lv is the liveness tracker and cluster-readiness monitor (heartbeat
	// state machine, incarnation generations, attach confirmations).
	lv *liveness

	// /status counters, written on the executor and read by the health
	// endpoint.
	parked   atomic.Int64 // transmissions parked on a dead peer (lifetime)
	inflight atomic.Int64 // delivery records in all windows right now
	strays   atomic.Int64 // confirmations for a sequence never sent (lifetime)
}

var _ core.Registrar = (*System)(nil)

// TransmitRec parks the delivery record at the end of the channel's window
// and ships the TData frame toward the relay that owns the sending end of
// the physical journey. A frame bound for a peer the liveness tracker
// declared dead parks without shipping (graceful degradation: the record
// stays in the window, bounded by the algorithms' own in-flight windows, and
// the resync replay ships it when the peer returns).
func (s *System) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	cp := s.chans.At(ch)
	if *cp == nil {
		kind, a, b := s.layout.Decode(ch)
		*cp = &hubChan{envelope: wire.Envelope{Kind: uint8(kind), A: int32(a), B: int32(b)}.Encode()}
	}
	c := *cp
	c.win = append(c.win, pendEntry{rec: rec, latency: uint32(latency)})
	s.inflight.Add(1)
	s.Tasks().OpStart()
	p, dead := s.sender(ch)
	if dead {
		s.Engine().NoteParkedOnDeadMSS()
		s.parked.Add(1)
		return
	}
	if f := c.frame(ch, len(c.win)-1); !p.send(f) {
		// Shutdown: outboxes are closed; resolve so drains don't hang.
		s.resolve(f.Ch, f.Seq)
	}
}

// sender names the peer that owns the sending end of ch's physical journey
// — the source station of a wired channel or downlink, the client of an
// uplink — and whether the liveness tracker has declared it dead.
func (s *System) sender(ch int) (p *peer, dead bool) {
	kind, a, b := s.layout.Decode(ch)
	if kind == engine.ChannelUp {
		return s.mhPeers[b], s.deadMH[b]
	}
	return s.mssPeers[a], s.deadMSS[a]
}

// NewSystem builds a hub from cfg, binds its listener, and starts accepting
// node and client connections (their traffic queues until Start).
func NewSystem(cfg Config) (*System, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if len(cfg.MSSAddrs) != cfg.M {
		return nil, fmt.Errorf("netrt: MSSAddrs has %d entries, want M=%d", len(cfg.MSSAddrs), cfg.M)
	}
	layout := engine.ChannelLayout{M: cfg.M, N: cfg.N}
	if layout.Count() > math.MaxInt32 {
		return nil, fmt.Errorf("netrt: M=%d, N=%d makes %d channel ids, more than the %d a frame's int32 carries", cfg.M, cfg.N, layout.Count(), math.MaxInt32)
	}
	s := &System{
		cfg:     cfg,
		layout:  layout,
		chans:   engine.NewChanTable[*hubChan](layout),
		deadMSS: make([]bool, cfg.M),
		deadMH:  make([]bool, cfg.N),
	}

	h, err := rt.NewHost(cfg.Config, s)
	if err != nil {
		return nil, err
	}
	s.Host = h
	s.lv = newLiveness(cfg.M, cfg.N, cfg.SuspectAfter, cfg.DeadAfter, cfg.Obs, s.Now)
	// The relay observer is registered first so clients learn their new
	// cell before any user algorithm reacts to the join.
	s.Register(&mobilityRelay{s: s})

	s.mssPeers = make([]*peer, cfg.M)
	for i := range s.mssPeers {
		p := newPeer(fmt.Sprintf("hub->mss%d", i), &s.wg, func(f wire.Frame) { s.onPeerFrame(wire.RoleMSS, i, f) })
		p.tap = cfg.FrameTap
		p.onChange = func() { s.lv.noteConn(wire.RoleMSS, i, p.connected()) }
		s.mssPeers[i] = p
		p.start()
	}
	s.mhPeers = make([]*peer, cfg.N)
	for h := range s.mhPeers {
		p := newPeer(fmt.Sprintf("hub->mh%d", h), &s.wg, func(f wire.Frame) { s.onPeerFrame(wire.RoleMH, h, f) })
		p.tap = cfg.FrameTap
		p.onChange = func() { s.lv.noteConn(wire.RoleMH, h, p.connected()) }
		s.mhPeers[h] = p
		p.start()
	}
	// Seed every client with its initial cell (the engine placed it there
	// silently during construction; no OnJoin fires for the initial
	// placement).
	for h := 0; h < cfg.N; h++ {
		s.rtGen++
		at, _ := s.Engine().Where(core.MHID(h))
		s.sendRetarget(core.MHID(h), at, -1, s.rtGen)
	}

	tr, err := newTransport(cfg.Transport, cfg.Secret, 0, -1)
	if err != nil {
		return nil, err
	}
	ln, err := tr.listen(cfg.ListenAddr, "")
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	if every := cfg.heartbeatEvery(); every > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop(every)
	}
	return s, nil
}

// heartbeatEvery resolves the configured liveness interval (<= 0 means
// default; negative disables).
func (c Config) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery < 0 {
		return 0
	}
	if c.HeartbeatEvery == 0 {
		return defaultHeartbeatEvery
	}
	return c.HeartbeatEvery
}

// peerFor maps a liveness identity to its peer slot.
func (s *System) peerFor(role wire.Role, id int) *peer {
	if role == wire.RoleMH {
		return s.mhPeers[id]
	}
	return s.mssPeers[id]
}

// heartbeatLoop drives the liveness state machine: ping every connected
// peer each interval, and when the tracker declares a peer dead, clear its
// outbox (the resync replay re-sends the unconfirmed suffix in order) and
// flip the executor's dead flag so new traffic parks instead of queuing.
func (s *System) heartbeatLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.Stopped():
			return
		case <-t.C:
		}
		died := s.lv.tick(func(role wire.Role, id int, seq uint64) {
			s.peerFor(role, id).send(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: seq})
		})
		for _, i := range died {
			role, id := s.lv.role(i)
			s.peerFor(role, id).clearOutbox()
			s.Tasks().Push(func() {
				if role == wire.RoleMSS {
					s.deadMSS[id] = true
				} else {
					s.deadMH[id] = true
				}
			})
		}
	}
}

// Addr returns the hub's bound listen address, for cluster files.
func (s *System) Addr() string { return s.ln.Addr().String() }

// SetAdvertise records the public address dialers use to reach the hub —
// needed when a proxy (the socket nemesis) or NAT fronts the listener, so
// the UDP transport accepts connect tokens bound to the dialled address.
// A no-op on TCP.
func (s *System) SetAdvertise(addr string) { setAdvertise(s.ln, addr) }

// Transport reports the substrate the hub runs over ("tcp" or "udp").
func (s *System) Transport() string {
	if s.cfg.Transport == "" {
		return TransportTCP
	}
	return s.cfg.Transport
}

// acceptLoop admits node and client connections: the first frame must be a
// THello identifying the dialler, after which the connection is attached to
// its peer slot.
func (s *System) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handshake(conn)
	}
}

func (s *System) handshake(conn net.Conn) {
	defer s.wg.Done()
	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil || f.Type != wire.THello {
		conn.Close()
		return
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil || int(h.M) != s.cfg.M || int(h.N) != s.cfg.N {
		conn.Close()
		return
	}
	inRange := (h.Role == wire.RoleMSS && 0 <= h.ID && int(h.ID) < s.cfg.M) ||
		(h.Role == wire.RoleMH && 0 <= h.ID && int(h.ID) < s.cfg.N)
	if !inRange {
		conn.Close()
		return
	}
	gen, resync, ok := s.lv.admit(h.Role, int(h.ID), h.Gen)
	if !ok {
		// Generation fence: a superseded incarnation is still dialling.
		// Refusing the connection keeps its stale frames out of the stream;
		// anything it wrote on an older connection was already cut off when
		// the newer incarnation's attach closed it.
		conn.Close()
		return
	}
	s.peerFor(h.Role, int(h.ID)).attach(conn, r)
	if resync {
		// New incarnation (or a dead peer returning): replay on the
		// executor. The TResync ack is sent there too, after the outbox
		// clears, so it isn't dropped with the stale frames.
		s.Tasks().Push(func() { s.resyncPeer(h.Role, int(h.ID), gen) })
	} else {
		s.peerFor(h.Role, int(h.ID)).send(wire.Frame{Type: wire.TResync, Ch: -1, Seq: gen})
	}
}

// onPeerFrame handles frames from nodes and clients (reader goroutines).
func (s *System) onPeerFrame(role wire.Role, id int, f wire.Frame) {
	switch f.Type {
	case wire.TDelivered:
		s.Tasks().Push(func() { s.resolve(f.Ch, f.Seq) })
	case wire.TAttached:
		if h := int(f.Ch); 0 <= h && h < s.cfg.N {
			s.lv.noteAttached(h, f.Seq)
		}
	case wire.THeartbeat:
		if f.Hop == 1 && s.lv.pong(role, id, f.Seq) {
			// The peer answered after being declared dead: it kept running
			// through a false suspicion (or a one-way partition healed). Its
			// outbox was cleared, so replay the unconfirmed suffix.
			gen := s.lv.genOf(role, id)
			s.Tasks().Push(func() { s.resyncPeer(role, id, gen) })
		}
	}
}

// resolve takes the confirmation of (ch, seq) and releases the confirmed
// prefix of the channel's window, in order. Both numbers come off a socket:
// a sequence below the window is a duplicate and dropped, anything else that
// is not in a window — no such channel, nothing ever sent on it, a sequence
// not sent yet — is a stray, dropped and counted. Runs on the executor.
func (s *System) resolve(ch int32, seq uint64) {
	var c *hubChan
	if 0 <= ch && int(ch) < s.layout.Count() {
		c = *s.chans.At(int(ch))
	}
	if c == nil || seq >= c.next+uint64(len(c.win)) {
		s.strays.Add(1)
		return
	}
	if seq < c.next {
		return // duplicate confirmation
	}
	c.win[seq-c.next].confirmed = true
	for len(c.win) > 0 && c.win[0].confirmed {
		rec := c.win[0].rec
		// Shift first: stepping the record may transmit on this channel.
		c.win = append(c.win[:0], c.win[1:]...)
		c.next++
		s.inflight.Add(-1)
		s.StepRec(rec)
		s.Tasks().OpDone()
	}
}

// resyncPeer recovers a returning peer on the executor: drop whatever the
// cleared-and-refilled outbox holds (stale interleavings), acknowledge the
// incarnation, re-send current retarget state, then replay the unconfirmed
// entries of every window that crosses the peer, in (channel, sequence)
// order. Duplicates that survive anywhere downstream fall below the hub's
// windows, so replay is always safe — even after a false suspicion.
func (s *System) resyncPeer(role wire.Role, id int, gen uint64) {
	p := s.peerFor(role, id)
	p.clearOutbox()
	p.send(wire.Frame{Type: wire.TResync, Ch: -1, Seq: gen})
	if role == wire.RoleMSS {
		s.deadMSS[id] = false
		// Re-point every MH the dead station was serving: their clients
		// re-dial, covering half-open wireless connections that survived
		// the crash on the client side.
		for h := 0; h < s.cfg.N; h++ {
			if at, st := s.Engine().Where(core.MHID(h)); st == core.StatusConnected && int(at) == id {
				s.rtGen++
				s.sendRetarget(core.MHID(h), at, at, s.rtGen)
			}
		}
	} else {
		s.deadMH[id] = false
		// A fresh client process has no target; re-send its current cell.
		at, st := s.Engine().Where(core.MHID(id))
		s.rtGen++
		if st == core.StatusConnected {
			s.sendRetarget(core.MHID(id), at, at, s.rtGen)
		} else {
			s.sendRetarget(core.MHID(id), -1, at, s.rtGen)
		}
	}

	// The unconfirmed suffix: every parked transmission that crosses the
	// peer — for a station, wired channels it sends or receives (a frame
	// may have died inside it after crossing the mesh, before confirming)
	// and its downlinks; for a client, its uplinks. Early-confirmed entries
	// are excluded: their journey completed. Frames go where TransmitRec
	// sends them: the sending station owns the journey, so a frame lost
	// inside a dead *receiving* station replays through its (live) sender.
	s.chans.Each(func(ch int, cp **hubChan) {
		c := *cp
		if c == nil {
			return
		}
		crosses := false
		switch kind, a, b := s.layout.Decode(ch); kind {
		case engine.ChannelWired:
			crosses = role == wire.RoleMSS && (a == id || b == id)
		case engine.ChannelDown:
			crosses = role == wire.RoleMSS && a == id
		case engine.ChannelUp:
			crosses = role == wire.RoleMH && b == id
		}
		if !crosses {
			return
		}
		via, _ := s.sender(ch)
		for i := range c.win {
			if !c.win[i].confirmed {
				via.send(c.frame(ch, i))
			}
		}
	})
}

// mobilityRelay is the hub's internal mobility observer: it translates the
// engine's join/leave/disconnect notifications into TRetarget frames so
// clients physically re-dial their serving station. Registered before any
// user algorithm; it sends no model messages and charges no costs.
type mobilityRelay struct {
	s *System
}

func (r *mobilityRelay) Name() string { return "netrt/mobility-relay" }

func (r *mobilityRelay) OnJoin(_ core.Context, mss core.MSSID, mh core.MHID, prev core.MSSID, _ bool) {
	r.s.rtGen++
	r.s.sendRetarget(mh, mss, prev, r.s.rtGen)
}

func (r *mobilityRelay) OnLeave(_ core.Context, mss core.MSSID, mh core.MHID) {
	r.s.rtGen++
	r.s.sendRetarget(mh, -1, mss, r.s.rtGen)
}

func (r *mobilityRelay) OnDisconnect(_ core.Context, mss core.MSSID, mh core.MHID) {
	r.s.rtGen++
	r.s.sendRetarget(mh, -1, mss, r.s.rtGen)
}

var _ core.MobilityObserver = (*mobilityRelay)(nil)

// sendRetarget queues a TRetarget for mh: at >= 0 points the client at that
// station's address, at < 0 detaches it.
func (s *System) sendRetarget(mh core.MHID, at core.MSSID, prev core.MSSID, gen uint64) {
	h := wire.Handoff{MH: int32(mh), MSS: int32(at), Prev: int32(prev), Gen: gen}
	if at >= 0 {
		h.Addr = s.cfg.MSSAddrs[at]
	}
	s.mhPeers[mh].send(wire.Frame{Type: wire.TRetarget, Ch: -1, Payload: h.Encode()})
}

// Config returns the hub configuration.
func (s *System) Config() Config { return s.cfg }

// WaitReady blocks until the whole cluster is wired up — every MSS node
// holds a hub connection, every MH client does too and has confirmed its
// initial wireless attach — or the timeout elapses, reporting success.
// Readiness is a liveness convenience (outboxes queue regardless); demos
// and tests use it to avoid measuring connection establishment. The wait is
// condition-signaled: peers wake it on every connection-state flip and
// attach confirmation, so there is no polling interval to tune.
func (s *System) WaitReady(timeout time.Duration) bool {
	return s.lv.waitReady(timeout)
}

// Stop shuts the hub down: it asks every node and client to exit (TBye),
// gives the outboxes a moment to flush, then tears down the executor, the
// listener and every connection, and waits for all goroutines.
func (s *System) Stop() {
	s.stopOnce.Do(func() {
		for _, p := range s.mssPeers {
			p.send(wire.Frame{Type: wire.TBye, Ch: -1})
		}
		for _, p := range s.mhPeers {
			p.send(wire.Frame{Type: wire.TBye, Ch: -1})
		}
		s.flushPeers(500 * time.Millisecond)
		s.Shutdown()
		s.ln.Close()
		for _, p := range s.mssPeers {
			p.close()
		}
		for _, p := range s.mhPeers {
			p.close()
		}
		s.wg.Wait()
	})
}

// flushPeers waits (bounded) for connected peers' outboxes to drain, so
// goodbye frames actually reach their targets. Each wait is
// condition-signaled: pops, clears, closes, and connection flips all wake
// it, and a disconnected peer is skipped immediately (nothing will drain
// its outbox).
func (s *System) flushPeers(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	peers := append(append([]*peer(nil), s.mssPeers...), s.mhPeers...)
	for _, p := range peers {
		if p.connected() {
			p.flush(deadline)
		}
	}
}

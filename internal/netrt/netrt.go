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
//   - the hub (this file) hosts the engine on a single executor goroutine,
//     exactly like internal/rt. Every TransmitRec assigns the channel's
//     next sequence number, parks the delivery record, and ships a TData
//     frame on a physical journey over TCP;
//   - MSS relay nodes (node.go) carry the wired tier: a TData for wired
//     channel (i,j) travels hub → node i, sleeps the link latency in node
//     i's per-channel pipe, crosses the mesh connection to node j, and
//     node j confirms with TDelivered. Downlinks sleep at the serving node
//     and cross that node's wireless connection to the MH client;
//   - MH clients (client.go) carry the uplinks: the frame travels hub →
//     client, sleeps the latency, and crosses the client's current
//     wireless connection into whatever cell serves it — so Cwireless
//     traffic always crosses a real link, and handoffs physically re-dial;
//   - when the hub receives TDelivered (ch, seq) it releases the parked
//     record — but only in per-channel sequence order, holding back any
//     confirmation that arrives early. That release buffer, not TCP alone,
//     is the model's per-channel FIFO guarantee; duplicate confirmations
//     (possible during connection loss, which both ends resolve
//     at-least-once) are suppressed by the same sequence check.
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
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/execq"
	"mobiledist/internal/faults"
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// Config describes the hub of a TCP-backed two-tier network. The model
// parameters mirror rt.Config; ListenAddr and MSSAddrs are the cluster
// concerns that only exist here.
type Config struct {
	// M and N size the network.
	M, N int
	// Params are the message cost constants.
	Params cost.Params
	// Seed initialises the latency RNG.
	Seed uint64
	// Tick converts virtual-time units to wall time (default 50µs, as rt).
	Tick time.Duration
	// Wired and Wireless are latency ranges in ticks.
	Wired, Wireless core.Delay
	// Travel is the between-cells delay range in ticks.
	Travel core.Delay
	// SearchMode selects the search service (zero: core.SearchAbstract).
	SearchMode core.SearchMode
	// PessimisticSearch mirrors core.Config.PessimisticSearch.
	PessimisticSearch bool
	// Faults, when non-nil and non-empty, wraps the substrate in the
	// deterministic fault injector and implies ReliableWireless.
	Faults *core.FaultPlan
	// ReliableWireless enables the engine's ARQ sublayer on the wireless
	// channels even without a fault plan.
	ReliableWireless bool
	// ARQTimeout is the ARQ initial retransmission timeout in ticks.
	ARQTimeout sim.Time
	// WaiterLimit caps the per-MH in-transit waiter queue (see
	// engine.Config.WaiterLimit); 0 means unlimited.
	WaiterLimit int
	// Placement maps each MH to its initial cell (nil: round-robin).
	Placement func(core.MHID) core.MSSID
	// Trace, when non-nil, receives one line per model-level event.
	Trace func(t sim.Time, event, detail string)
	// Obs, when non-nil, records typed observability events and metrics.
	Obs *obs.Tracer

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
	return Config{
		M:                 m,
		N:                 n,
		Params:            cost.DefaultParams(),
		Seed:              1,
		Tick:              50 * time.Microsecond,
		Wired:             core.Delay{Min: 1, Max: 4},
		Wireless:          core.Delay{Min: 1, Max: 2},
		Travel:            core.Delay{Min: 2, Max: 10},
		SearchMode:        core.SearchAbstract,
		PessimisticSearch: true,
		ListenAddr:        "127.0.0.1:0",
	}
}

// engineConfig projects the hub configuration onto the shared engine's
// substrate-independent parameters.
func (c Config) engineConfig() engine.Config {
	mode := c.SearchMode
	if mode == 0 {
		mode = core.SearchAbstract
	}
	reliable := c.ReliableWireless
	if c.Faults != nil && !c.Faults.Empty() {
		reliable = true
	}
	return engine.Config{
		M:                 c.M,
		N:                 c.N,
		Params:            c.Params,
		Wired:             c.Wired,
		Wireless:          c.Wireless,
		Travel:            c.Travel,
		SearchMode:        mode,
		PessimisticSearch: c.PessimisticSearch,
		ReliableWireless:  reliable,
		ARQTimeout:        c.ARQTimeout,
		WaiterLimit:       c.WaiterLimit,
		Placement:         c.Placement,
		Trace:             c.Trace,
		Obs:               c.Obs,
	}
}

// place mirrors the engine's initial placement rule.
func (c Config) place(mh core.MHID) core.MSSID {
	if c.Placement != nil {
		return c.Placement(mh)
	}
	return core.MSSID(int(mh) % c.M)
}

// pendKey identifies one in-flight transmission.
type pendKey struct {
	ch  int32
	seq uint64
}

// pendEntry is one parked in-flight transmission: the delivery record plus
// the drawn latency, kept so a resync replay can rebuild the exact TData
// frame for the unconfirmed suffix.
type pendEntry struct {
	rec     *engine.DeliveryRec
	latency uint32
}

// chanState is the hub's per-channel release buffer: next is the sequence
// number whose confirmation may release, ready holds confirmations that
// arrived early.
type chanState struct {
	next  uint64
	ready map[uint64]struct{}
}

// System is the hub: the shared engine bound to the TCP substrate. It
// implements core.Registrar with the same lifecycle and calling conventions
// as rt.System, so any algorithm in this repository runs on it unmodified.
type System struct {
	cfg    Config
	eng    *engine.Engine
	rng    *sim.RNG // executor-only
	inj    *faults.Injector
	layout engine.ChannelLayout

	tasks    *execq.Queue
	stopped  chan struct{}
	execDone chan struct{}
	started  bool
	stopOnce sync.Once
	epoch    time.Time

	ln       net.Listener
	wg       sync.WaitGroup
	mssPeers []*peer
	mhPeers  []*peer

	// Executor-only transmission state. Parked records are stepped (and
	// freed) by the bound sink on the executor only; the record pool is
	// not thread-safe, so stopped paths drop records rather than free them.
	seqs      []uint64
	chans     []chanState
	pending   map[pendKey]pendEntry
	envelopes [][]byte
	rtGen     uint64
	sink      engine.RecSink

	// deadMSS / deadMH mirror the liveness tracker's dead verdicts onto the
	// executor (set and cleared via executor tasks, read by TransmitRec):
	// transmissions toward a dead peer park in pending without queuing a
	// frame, and the resync replay re-sends them.
	deadMSS []bool
	deadMH  []bool

	// lv is the liveness tracker and cluster-readiness monitor (heartbeat
	// state machine, incarnation generations, attach confirmations).
	lv *liveness

	// parked and inflight are /status counters, written on the executor and
	// read by the health endpoint.
	parked   atomic.Int64 // transmissions parked on a dead peer (lifetime)
	inflight atomic.Int64 // pending delivery records right now
}

var _ core.Registrar = (*System)(nil)

// netSubstrate adapts the System to the engine's Substrate interface. Every
// method runs on the executor (or the single-threaded build phase).
type netSubstrate struct {
	s *System
}

var _ engine.Substrate = (*netSubstrate)(nil)

func (l *netSubstrate) Now() sim.Time { return l.s.now() }

func (l *netSubstrate) BindRecSink(sink engine.RecSink) { l.s.sink = sink }

// TransmitRec parks the delivery record under the channel's next sequence
// number and ships the TData frame toward the relay that owns the sending
// end of the physical journey. A frame bound for a peer the liveness
// tracker declared dead parks without shipping (graceful degradation: the
// record stays pending, bounded by the algorithms' own in-flight windows,
// and the resync replay ships it when the peer returns).
func (l *netSubstrate) TransmitRec(ch int, latency sim.Time, rec *engine.DeliveryRec) {
	s := l.s
	seq := s.seqs[ch]
	s.seqs[ch]++
	s.pending[pendKey{int32(ch), seq}] = pendEntry{rec: rec, latency: uint32(latency)}
	s.inflight.Add(1)
	s.tasks.OpStart()
	f := wire.Frame{
		Type:    wire.TData,
		Ch:      int32(ch),
		Seq:     seq,
		Latency: uint32(latency),
		Payload: s.envelopes[ch],
	}
	kind, a, b := s.layout.Decode(ch)
	var ok bool
	switch kind {
	case engine.ChannelWired, engine.ChannelDown:
		if s.deadMSS[a] {
			s.parkOnDead()
			return
		}
		ok = s.mssPeers[a].send(f)
	case engine.ChannelUp:
		if s.deadMH[b] {
			s.parkOnDead()
			return
		}
		ok = s.mhPeers[b].send(f)
	}
	if !ok {
		// Shutdown: outboxes are closed; resolve so drains don't hang.
		s.resolve(int32(ch), seq)
	}
}

// parkOnDead accounts one transmission parked on a dead peer (executor).
func (s *System) parkOnDead() {
	s.eng.NoteParkedOnDeadMSS()
	s.parked.Add(1)
}

// AfterRec arms a wall timer that hands the record to the executor for
// interpretation. A daemon record (standing maintenance such as DTN gossip)
// is armed without holding an op open, so it cannot wedge WaitIdle. A
// record landing after Stop is dropped (not freed — the pool is
// executor-only).
func (l *netSubstrate) AfterRec(d sim.Time, rec *engine.DeliveryRec) {
	s := l.s
	if rec.Daemon() {
		time.AfterFunc(time.Duration(d)*s.cfg.Tick, func() { l.EnqueueRec(rec) })
		return
	}
	s.tasks.OpStart()
	time.AfterFunc(time.Duration(d)*s.cfg.Tick, func() {
		if !s.tasks.Push(func() { defer s.tasks.OpDone(); s.sink.StepRec(rec) }) {
			s.tasks.OpDone()
		}
	})
}

// EnqueueRec runs the record on the executor without delay.
func (l *netSubstrate) EnqueueRec(rec *engine.DeliveryRec) {
	l.s.tasks.Push(func() { l.s.sink.StepRec(rec) })
}

func (l *netSubstrate) RNG() *sim.RNG { return l.s.rng }

// NewSystem builds a hub from cfg, binds its listener, and starts accepting
// node and client connections (their traffic queues until Start). A
// non-empty cfg.Faults plan interposes the deterministic fault injector
// between the engine and the socket substrate.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Microsecond
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if len(cfg.MSSAddrs) != cfg.M {
		return nil, fmt.Errorf("netrt: MSSAddrs has %d entries, want M=%d", len(cfg.MSSAddrs), cfg.M)
	}
	channels := engine.ChannelCount(cfg.M, cfg.N)
	s := &System{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed),
		layout:   engine.ChannelLayout{M: cfg.M, N: cfg.N},
		tasks:    execq.New(),
		stopped:  make(chan struct{}),
		execDone: make(chan struct{}),
		seqs:     make([]uint64, channels),
		chans:    make([]chanState, channels),
		pending:  make(map[pendKey]pendEntry),
		deadMSS:  make([]bool, cfg.M),
		deadMH:   make([]bool, cfg.N),
	}
	s.lv = newLiveness(cfg.M, cfg.N, cfg.SuspectAfter, cfg.DeadAfter, cfg.Obs, s.now)
	s.envelopes = make([][]byte, channels)
	for ch := range s.envelopes {
		kind, a, b := s.layout.Decode(ch)
		s.envelopes[ch] = wire.Envelope{Kind: uint8(kind), A: int32(a), B: int32(b)}.Encode()
	}

	var sub engine.Substrate = &netSubstrate{s: s}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		inj, err := faults.New(*cfg.Faults, cfg.M, cfg.N, sub)
		if err != nil {
			return nil, err
		}
		inj.SetTracer(cfg.Obs)
		s.inj = inj
		sub = inj
	}
	// The observer wraps outermost so it records what the engine asked the
	// transport to do, before the fault injector disturbs it.
	cfg.Obs.SetTopology(cfg.M, cfg.N)
	sub = engine.ObserveSubstrate(sub, cfg.Obs)
	eng, err := engine.New(cfg.engineConfig(), sub)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	// The relay observer is registered first so clients learn their new
	// cell before any user algorithm reacts to the join.
	s.eng.Register(&mobilityRelay{s: s})

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
		at := cfg.place(core.MHID(h))
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
		case <-s.stopped:
			return
		case <-t.C:
		}
		died := s.lv.tick(func(role wire.Role, id int, seq uint64) {
			s.peerFor(role, id).send(wire.Frame{Type: wire.THeartbeat, Ch: -1, Seq: seq})
		})
		for _, i := range died {
			role, id := s.lv.role(i)
			s.peerFor(role, id).clearOutbox()
			s.tasks.Push(func() {
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
		s.tasks.Push(func() { s.resyncPeer(h.Role, int(h.ID), gen) })
	} else {
		s.peerFor(h.Role, int(h.ID)).send(wire.Frame{Type: wire.TResync, Ch: -1, Seq: gen})
	}
}

// onPeerFrame handles frames from nodes and clients (reader goroutines).
func (s *System) onPeerFrame(role wire.Role, id int, f wire.Frame) {
	switch f.Type {
	case wire.TDelivered:
		s.tasks.Push(func() { s.resolve(f.Ch, f.Seq) })
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
			s.tasks.Push(func() { s.resyncPeer(role, id, gen) })
		}
	}
}

// resolve releases the parked delivery for (ch, seq), in per-channel
// sequence order: early confirmations wait in the ready set, duplicates
// (seq already released) are dropped. Runs on the executor.
func (s *System) resolve(ch int32, seq uint64) {
	st := &s.chans[ch]
	if seq < st.next {
		return // duplicate confirmation
	}
	if seq != st.next {
		if st.ready == nil {
			st.ready = make(map[uint64]struct{})
		}
		st.ready[seq] = struct{}{}
		return
	}
	s.deliver(ch, st.next)
	st.next++
	for {
		if _, ok := st.ready[st.next]; !ok {
			return
		}
		delete(st.ready, st.next)
		s.deliver(ch, st.next)
		st.next++
	}
}

func (s *System) deliver(ch int32, seq uint64) {
	k := pendKey{ch, seq}
	pe, ok := s.pending[k]
	if !ok {
		return
	}
	delete(s.pending, k)
	s.inflight.Add(-1)
	s.sink.StepRec(pe.rec)
	s.tasks.OpDone()
}

// resyncPeer recovers a returning peer on the executor: drop whatever the
// cleared-and-refilled outbox holds (stale interleavings), acknowledge the
// incarnation, re-send current retarget state, then replay the unconfirmed
// per-channel suffix from the pending ledger in (channel, sequence) order.
// Duplicates that survive anywhere downstream are suppressed by the hub's
// release buffer, so replay is always safe — even after a false suspicion.
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
			if at, st := s.eng.Where(core.MHID(h)); st == core.StatusConnected && int(at) == id {
				s.rtGen++
				s.sendRetarget(core.MHID(h), at, at, s.rtGen)
			}
		}
	} else {
		s.deadMH[id] = false
		// A fresh client process has no target; re-send its current cell.
		at, st := s.eng.Where(core.MHID(id))
		s.rtGen++
		if st == core.StatusConnected {
			s.sendRetarget(core.MHID(id), at, at, s.rtGen)
		} else {
			s.sendRetarget(core.MHID(id), -1, at, s.rtGen)
		}
	}

	// The unconfirmed suffix: every pending transmission that crosses the
	// peer — for a station, wired channels it sends or receives (a frame
	// may have died inside it after crossing the mesh, before confirming)
	// and its downlinks; for a client, its uplinks. Early-confirmed
	// sequences (in the ready set) are excluded: their journey completed.
	keys := make([]pendKey, 0, 16)
	for k := range s.pending {
		kind, a, b := s.layout.Decode(int(k.ch))
		owned := false
		switch kind {
		case engine.ChannelWired:
			owned = role == wire.RoleMSS && (a == id || b == id)
		case engine.ChannelDown:
			owned = role == wire.RoleMSS && a == id
		case engine.ChannelUp:
			owned = role == wire.RoleMH && b == id
		}
		if !owned {
			continue
		}
		if st := &s.chans[k.ch]; st.ready != nil {
			if _, confirmed := st.ready[k.seq]; confirmed {
				continue
			}
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ch != keys[j].ch {
			return keys[i].ch < keys[j].ch
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		pe := s.pending[k]
		f := wire.Frame{
			Type:    wire.TData,
			Ch:      k.ch,
			Seq:     k.seq,
			Latency: pe.latency,
			Payload: s.envelopes[k.ch],
		}
		// Route like TransmitRec: the sending station owns the journey, so
		// a frame lost inside a dead *receiving* station replays through
		// its (live) sender.
		kind, a, b := s.layout.Decode(int(k.ch))
		switch kind {
		case engine.ChannelWired, engine.ChannelDown:
			s.mssPeers[a].send(f)
		case engine.ChannelUp:
			s.mhPeers[b].send(f)
		}
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace(s.now(), "resync", fmt.Sprintf("%v%d gen=%d replayed=%d", role, id, gen, len(keys)))
	}
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

// Register implements core.Registrar. It must be called before Start.
func (s *System) Register(alg core.Algorithm) core.Context {
	if s.started {
		panic("netrt: Register after Start")
	}
	return s.eng.Register(alg)
}

// Engine exposes the shared network engine (for conformance tests and
// cross-substrate tooling). Access it only via Do after Start.
func (s *System) Engine() *engine.Engine { return s.eng }

// Injector exposes the fault injector, or nil when the system runs
// fault-free. After Start, access it only via Do.
func (s *System) Injector() *faults.Injector { return s.inj }

// Meter returns the cost meter. Read it only after WaitIdle or Stop.
func (s *System) Meter() *cost.Meter { return s.eng.Meter() }

// Config returns the hub configuration.
func (s *System) Config() Config { return s.cfg }

// Tracer returns the tracer the system was configured with, or nil.
func (s *System) Tracer() *obs.Tracer { return s.cfg.Obs }

// MetricsHandler returns an http.Handler exposing the observability state
// (Prometheus text at /metrics, expvar-style JSON at /vars), or 404s when
// the system was built without a tracer.
func (s *System) MetricsHandler() http.Handler {
	if s.cfg.Obs == nil {
		return http.NotFoundHandler()
	}
	return s.cfg.Obs.Handler()
}

// Stats returns a copy of the model-level counters. After Start it
// synchronises with the executor, so it must not be called from inside Do
// or a handler (read s.Engine().Stats() there instead).
func (s *System) Stats() engine.Stats {
	if !s.started {
		return s.eng.Stats()
	}
	var st engine.Stats
	s.Do(func() { st = s.eng.Stats() })
	return st
}

// Searches reports searches performed so far (same calling rules as Stats).
func (s *System) Searches() int64 { return s.Stats().Searches }

// Start launches the executor. Algorithms must already be registered.
func (s *System) Start() {
	if s.started {
		panic("netrt: Start called twice")
	}
	s.started = true
	s.epoch = time.Now()
	go func() {
		defer close(s.execDone)
		for {
			fn, ok := s.tasks.Pop()
			if !ok {
				return
			}
			fn()
			s.tasks.Done()
		}
	}()
}

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

// ready reports instantaneous cluster readiness.
func (s *System) ready() bool { return s.lv.ready() }

// Do runs fn on the executor and waits for it — the only safe way to call
// algorithm APIs from outside handlers after Start.
func (s *System) Do(fn func()) {
	if !s.started {
		panic("netrt: Do before Start")
	}
	done := make(chan struct{})
	if !s.tasks.Push(func() {
		defer close(done)
		fn()
	}) {
		panic("netrt: Do after Stop")
	}
	<-done
}

// WaitIdle blocks until the network drains — no task queued or running, no
// timer or transmission in flight — or the timeout elapses, reporting
// whether it drained. The predicate is exact: every transmission holds an
// in-flight op from Transmit until its confirmation releases the delivery.
func (s *System) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ch, idle := s.tasks.IdleWait()
		if idle {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return false
		}
	}
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
		close(s.stopped)
		s.tasks.Close()
		if s.started {
			<-s.execDone
		}
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

// now returns virtual time (wall time since Start in ticks).
func (s *System) now() sim.Time {
	if s.epoch.IsZero() {
		return 0
	}
	return sim.Time(time.Since(s.epoch) / s.cfg.Tick)
}

func (s *System) checkMSS(id core.MSSID) {
	if int(id) < 0 || int(id) >= s.cfg.M {
		panic(fmt.Sprintf("netrt: invalid mss id %d (M=%d)", int(id), s.cfg.M))
	}
}

func (s *System) checkMH(id core.MHID) {
	if int(id) < 0 || int(id) >= s.cfg.N {
		panic(fmt.Sprintf("netrt: invalid mh id %d (N=%d)", int(id), s.cfg.N))
	}
}

// Move initiates a cell switch for mh (same surface as rt.System.Move).
func (s *System) Move(mh core.MHID, to core.MSSID) {
	s.checkMH(mh)
	s.checkMSS(to)
	s.Do(func() { _ = s.eng.Move(mh, to) })
}

// Disconnect performs a voluntary disconnection of mh.
func (s *System) Disconnect(mh core.MHID) {
	s.checkMH(mh)
	s.Do(func() { _ = s.eng.Disconnect(mh) })
}

// Reconnect re-attaches a disconnected mh at the given MSS, supplying its
// previous location (the paper's common case).
func (s *System) Reconnect(mh core.MHID, at core.MSSID) {
	s.checkMH(mh)
	s.checkMSS(at)
	s.Do(func() { _ = s.eng.Reconnect(mh, at, true) })
}

// Where reports the cell and status of mh (call via Do for a consistent
// snapshot, or after WaitIdle).
func (s *System) Where(mh core.MHID) (core.MSSID, core.MHStatus) {
	return s.eng.Where(mh)
}

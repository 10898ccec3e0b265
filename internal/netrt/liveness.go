package netrt

import (
	"sync"
	"time"

	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
	"mobiledist/internal/wire"
)

// Liveness defaults: the hub pings every connected peer each interval,
// marks it suspect after suspectAfter consecutive unanswered pings, and
// dead once no pong has arrived for deadAfter. Config fields override all
// three.
const (
	defaultHeartbeatEvery = 25 * time.Millisecond
	defaultSuspectAfter   = 3
	defaultDeadAfter      = 500 * time.Millisecond
)

// PeerState is the hub's liveness verdict on one cluster peer.
type PeerState uint8

const (
	// PeerAlive: the peer answers heartbeats (or has not yet been judged —
	// liveness only starts once the peer first connects).
	PeerAlive PeerState = iota
	// PeerSuspect: K consecutive heartbeats went unanswered.
	PeerSuspect
	// PeerDead: no pong within the dead deadline. The hub cleared the
	// peer's outbox; deliveries park until a resync replays the suffix.
	PeerDead
)

// String names the state (the /status JSON vocabulary).
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// PeerHealth is one row of the hub's peer liveness table (PeerHealth API
// and the /status endpoint).
type PeerHealth struct {
	// Role and ID identify the peer (station or mobile host).
	Role wire.Role
	ID   int
	// State is the current liveness verdict.
	State PeerState
	// Connected reports whether a TCP connection currently stands.
	Connected bool
	// Gen is the newest incarnation generation admitted for this id.
	Gen uint64
	// Missed is the current run of consecutive unanswered heartbeats;
	// Misses is the cumulative count over the hub's lifetime.
	Missed int
	Misses int64
	// LastPong is the wall time of the last heartbeat answer (zero before
	// the first connection).
	LastPong time.Time
	// OutboxDepth is the number of frames queued toward the peer.
	OutboxDepth int
}

// lvPeer is the tracker's per-peer record.
type lvPeer struct {
	state     PeerState
	connected bool
	gen       uint64
	needSync  bool
	pingSeq   uint64 // last ping sent
	pongSeq   uint64 // last ping answered
	pingAt    time.Time
	lastPong  time.Time
	missed    int
	misses    int64
}

// liveness is the hub's liveness tracker and cluster-readiness monitor: one
// mutex + condvar over the per-peer state, the MH attach generations, and
// the heartbeat RTT histogram. Reader goroutines, the heartbeat ticker, and
// WaitReady all meet here; the lock order is liveness.mu before any peer's
// mutex (peers call back into the tracker only from outside their own
// locks).
type liveness struct {
	mu   sync.Mutex
	cond *sync.Cond
	m, n int

	suspectK int
	deadFor  time.Duration

	peers    []lvPeer // stations 0..m-1, then mobile hosts 0..n-1
	attached []uint64 // latest handoff generation each MH confirmed

	tracer *obs.Tracer
	now    func() sim.Time
	rtt    obs.Histogram // heartbeat round-trip times, µs
}

func newLiveness(m, n, suspectK int, deadFor time.Duration, tracer *obs.Tracer, now func() sim.Time) *liveness {
	if suspectK <= 0 {
		suspectK = defaultSuspectAfter
	}
	if deadFor <= 0 {
		deadFor = defaultDeadAfter
	}
	lv := &liveness{
		m:        m,
		n:        n,
		suspectK: suspectK,
		deadFor:  deadFor,
		peers:    make([]lvPeer, m+n),
		attached: make([]uint64, n),
		tracer:   tracer,
		now:      now,
	}
	lv.cond = sync.NewCond(&lv.mu)
	return lv
}

func (lv *liveness) idx(role wire.Role, id int) int {
	if role == wire.RoleMH {
		return lv.m + id
	}
	return id
}

func (lv *liveness) role(i int) (wire.Role, int) {
	if i >= lv.m {
		return wire.RoleMH, i - lv.m
	}
	return wire.RoleMSS, i
}

// noteConn records a connection-state flip for the peer (called from the
// peer's onChange hook, outside its lock). The first connection starts the
// liveness clock: before it, the peer is never judged.
func (lv *liveness) noteConn(role wire.Role, id int, connected bool) {
	lv.mu.Lock()
	p := &lv.peers[lv.idx(role, id)]
	p.connected = connected
	if connected && p.lastPong.IsZero() {
		p.lastPong = time.Now()
	}
	if !connected && p.gen != 0 {
		// A dropped connection can swallow frames that were already written
		// into its send buffer (write success ≠ delivery). Flag the peer so
		// the next admission or pong replays the unconfirmed suffix; the
		// send window drops whatever actually made it across as a duplicate.
		p.needSync = true
	}
	lv.cond.Broadcast()
	lv.mu.Unlock()
}

// noteAttached records an MH client's wireless-attach confirmation.
func (lv *liveness) noteAttached(mh int, gen uint64) {
	lv.mu.Lock()
	if gen > lv.attached[mh] {
		lv.attached[mh] = gen
	}
	lv.cond.Broadcast()
	lv.mu.Unlock()
}

// waitReady blocks until the cluster is ready — every peer connected, every
// MH attached — or the timeout, reporting success.
func (lv *liveness) waitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, lv.wake)
	defer timer.Stop()
	lv.mu.Lock()
	defer lv.mu.Unlock()
	for {
		ok := true
		for i := range lv.peers {
			if !lv.peers[i].connected {
				ok = false
				break
			}
		}
		if ok {
			for _, gen := range lv.attached {
				if gen == 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		lv.cond.Wait()
	}
}

func (lv *liveness) wake() {
	lv.mu.Lock()
	lv.cond.Broadcast()
	lv.mu.Unlock()
}

// tick advances the heartbeat state machine one interval: charges a miss to
// every peer whose previous ping is unanswered, emits suspect/dead
// transitions, and sends the next round of pings via sendPing (only to
// connected peers — a disconnected peer cannot pong, so its misses accrue
// without queuing useless frames). A dead verdict changes what the hub does
// with a peer's traffic, not whether it keeps asking: a connected peer is
// pinged while dead too, because the verdict may be the hub's own fault (a
// ticker that stalled past deadFor finds every lastPong stale, including
// those of peers that answered everything they were asked) and only a pong
// brings such a peer back. It returns the peers newly declared dead; the
// caller clears their outboxes and parks their traffic.
func (lv *liveness) tick(sendPing func(role wire.Role, id int, seq uint64)) (died []int) {
	now := time.Now()
	lv.mu.Lock()
	defer lv.mu.Unlock()
	for i := range lv.peers {
		p := &lv.peers[i]
		if p.lastPong.IsZero() {
			continue // never connected: not judged yet
		}
		if p.pingSeq > p.pongSeq || !p.connected {
			p.missed++
			p.misses++
		} else {
			p.missed = 0
		}
		role, id := lv.role(i)
		if p.missed >= lv.suspectK && p.state == PeerAlive {
			p.state = PeerSuspect
			lv.tracer.Record(lv.now(), obs.EvPeerSuspect, int32(id), int32(role), int32(p.missed))
		}
		if p.state != PeerDead && now.Sub(p.lastPong) > lv.deadFor {
			p.state = PeerDead
			p.needSync = true
			lv.tracer.Record(lv.now(), obs.EvPeerDead, int32(id), int32(role), int32(p.missed))
			died = append(died, i)
		}
		if p.connected {
			p.pingSeq++
			p.pingAt = now
			sendPing(role, id, p.pingSeq)
		}
	}
	return died
}

// pong processes a heartbeat answer, reporting whether the peer needs a
// resync (it was declared dead and its outbox suffix must be replayed —
// possibly a false suspicion on a slow machine; replaying is always safe
// because the hub's sequence check suppresses duplicates).
func (lv *liveness) pong(role wire.Role, id int, seq uint64) (resync bool) {
	now := time.Now()
	lv.mu.Lock()
	defer lv.mu.Unlock()
	p := &lv.peers[lv.idx(role, id)]
	if seq <= p.pongSeq {
		return false // stale or duplicate answer
	}
	p.pongSeq = seq
	p.lastPong = now
	p.missed = 0
	if seq == p.pingSeq && !p.pingAt.IsZero() {
		lv.rtt.Observe(now.Sub(p.pingAt).Microseconds())
	}
	if p.state != PeerAlive {
		p.state = PeerAlive
		lv.tracer.Record(lv.now(), obs.EvPeerRecovered, int32(id), int32(role), int32(p.gen))
	}
	resync = p.needSync
	p.needSync = false
	return resync
}

// admit gates a handshake for (role, id) claiming incarnation generation
// claimed (0 = "assign me one"). It returns the accepted generation and
// whether the hub must resync the peer (replay the unconfirmed suffix and
// re-send retargets). ok is false when the claim is stale — an older
// incarnation than the newest admitted — and the connection must be
// fenced off.
func (lv *liveness) admit(role wire.Role, id int, claimed uint64) (gen uint64, resync, ok bool) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	p := &lv.peers[lv.idx(role, id)]
	switch {
	case claimed == 0:
		gen = p.gen + 1
	case claimed < p.gen:
		return 0, false, false // stale incarnation: fence it
	default:
		gen = claimed
	}
	// A new incarnation of a peer the hub has talked to before lost its
	// in-memory frames; so did a peer flagged dead. Both need the replay.
	resync = (p.gen != 0 && gen > p.gen) || p.needSync
	p.gen = gen
	p.needSync = false
	if resync {
		// The incarnation announced itself: that is as good as a pong.
		p.lastPong = time.Now()
		p.missed = 0
		if p.state != PeerAlive {
			p.state = PeerAlive
			lv.tracer.Record(lv.now(), obs.EvPeerRecovered, int32(id), int32(role), int32(p.gen))
		}
	}
	return gen, resync, true
}

// genOf reports the newest admitted incarnation generation for the peer.
func (lv *liveness) genOf(role wire.Role, id int) uint64 {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.peers[lv.idx(role, id)].gen
}

// deadCount reports how many peers are currently declared dead.
func (lv *liveness) deadCount() int {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	dead := 0
	for i := range lv.peers {
		if lv.peers[i].state == PeerDead {
			dead++
		}
	}
	return dead
}

// state reports the current verdict for one peer.
func (lv *liveness) state(role wire.Role, id int) PeerState {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.peers[lv.idx(role, id)].state
}

// snapshot copies the liveness table; depth supplies each peer's outbox
// depth (called with lv.mu held, so it must not take lv.mu itself; frame
// queues carry their own locks).
func (lv *liveness) snapshot(depth func(role wire.Role, id int) int) []PeerHealth {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	out := make([]PeerHealth, len(lv.peers))
	for i := range lv.peers {
		p := &lv.peers[i]
		role, id := lv.role(i)
		out[i] = PeerHealth{
			Role:      role,
			ID:        id,
			State:     p.state,
			Connected: p.connected,
			Gen:       p.gen,
			Missed:    p.missed,
			Misses:    p.misses,
			LastPong:  p.lastPong,
		}
		if depth != nil {
			out[i].OutboxDepth = depth(role, id)
		}
	}
	return out
}

// rttSummary snapshots the heartbeat RTT histogram (count, mean µs, p99 µs).
func (lv *liveness) rttSummary() (count int64, mean float64, p99 int64) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.rtt.Count(), lv.rtt.Mean(), lv.rtt.Quantile(0.99)
}

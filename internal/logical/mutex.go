package logical

import "fmt"

// MutexMsg is a protocol message between Lamport mutual-exclusion
// participants [Lamport 1978].
type MutexMsg interface {
	// Sender is the issuing participant.
	Sender() int
	// Stamp is the sender's logical clock value when the message was sent.
	Stamp() int64
}

// MutexRequest announces a new request with the sender's timestamp.
type MutexRequest struct {
	From int
	TS   Timestamp
}

// Sender implements MutexMsg.
func (m MutexRequest) Sender() int { return m.From }

// Stamp implements MutexMsg.
func (m MutexRequest) Stamp() int64 { return m.TS.Time }

// MutexReply acknowledges a request.
type MutexReply struct {
	From  int
	Clock int64
}

// Sender implements MutexMsg.
func (m MutexReply) Sender() int { return m.From }

// Stamp implements MutexMsg.
func (m MutexReply) Stamp() int64 { return m.Clock }

// MutexRelease withdraws a previously granted request.
type MutexRelease struct {
	From  int
	ReqTS Timestamp
	Clock int64
}

// Sender implements MutexMsg.
func (m MutexRelease) Sender() int { return m.From }

// Stamp implements MutexMsg.
func (m MutexRelease) Stamp() int64 { return m.Clock }

// MutexEngine is one participant of Lamport's mutual exclusion algorithm:
// a logical clock, a timestamp-ordered request queue, and the last
// timestamp seen from every peer. The engine performs all communication
// through the injected send callback, so it can be hosted on any substrate
// (mobile hosts in L1, support stations in L2, proxies in the Section-5
// framework). A participant may enter the critical section for the request
// at the head of its queue once it has received a message timestamped
// later than that request from every other participant.
//
// The engine requires FIFO channels between every participant pair.
type MutexEngine struct {
	proc  int
	peers int

	clock    Clock
	queue    RequestQueue
	lastSeen []int64

	// granted marks that the current queue head is this participant's and
	// has been handed to onGrant; it is cleared when that request releases.
	granted bool

	send    func(to int, m MutexMsg)
	onGrant func(tag int64, ts Timestamp)
}

// NewMutexEngine builds participant proc of peers total. send transmits a
// protocol message to a peer; onGrant fires when a local request (identified
// by its tag and timestamp) acquires the critical section.
func NewMutexEngine(proc, peers int, send func(to int, m MutexMsg), onGrant func(tag int64, ts Timestamp)) *MutexEngine {
	if proc < 0 || proc >= peers {
		panic(fmt.Sprintf("logical: participant %d out of range [0,%d)", proc, peers))
	}
	return &MutexEngine{
		proc:     proc,
		peers:    peers,
		lastSeen: make([]int64, peers),
		send:     send,
		onGrant:  onGrant,
	}
}

// Request enqueues a new local request tagged tag, broadcasts it, and
// returns its timestamp.
func (e *MutexEngine) Request(tag int64) Timestamp {
	ts := Timestamp{Time: e.clock.Tick(), Proc: e.proc}
	e.queue.Insert(Request{TS: ts, Tag: tag})
	for j := 0; j < e.peers; j++ {
		if j != e.proc {
			e.send(j, MutexRequest{From: e.proc, TS: ts})
		}
	}
	e.maybeGrant()
	return ts
}

// Release withdraws the local request with timestamp ts and broadcasts the
// release.
func (e *MutexEngine) Release(ts Timestamp) error {
	if ts.Proc != e.proc {
		return fmt.Errorf("logical: release of foreign request %+v at proc %d", ts, e.proc)
	}
	if !e.queue.Remove(ts) {
		return fmt.Errorf("logical: release of unknown request %+v at proc %d", ts, e.proc)
	}
	e.granted = false
	c := e.clock.Tick()
	for j := 0; j < e.peers; j++ {
		if j != e.proc {
			e.send(j, MutexRelease{From: e.proc, ReqTS: ts, Clock: c})
		}
	}
	e.maybeGrant()
	return nil
}

// Handle processes one protocol message.
func (e *MutexEngine) Handle(m MutexMsg) {
	e.clock.Witness(m.Stamp())
	if ts := m.Stamp(); ts > e.lastSeen[m.Sender()] {
		e.lastSeen[m.Sender()] = ts
	}
	switch msg := m.(type) {
	case MutexRequest:
		e.queue.Insert(Request{TS: msg.TS})
		e.send(msg.From, MutexReply{From: e.proc, Clock: e.clock.Tick()})
	case MutexReply:
		// Clock and lastSeen updates above are the whole effect.
	case MutexRelease:
		if !e.queue.Remove(msg.ReqTS) {
			// A release can only refer to a request the FIFO channel
			// delivered earlier; a miss indicates a protocol bug.
			panic(fmt.Sprintf("logical: release for unknown request %+v at proc %d", msg.ReqTS, e.proc))
		}
	default:
		panic(fmt.Sprintf("logical: unknown mutex message %T", m))
	}
	e.maybeGrant()
}

// maybeGrant fires onGrant when the head request is local and every peer
// has been heard from with a later timestamp.
func (e *MutexEngine) maybeGrant() {
	if e.granted {
		return
	}
	head, ok := e.queue.Head()
	if !ok || head.TS.Proc != e.proc {
		return
	}
	for j := 0; j < e.peers; j++ {
		if j != e.proc && e.lastSeen[j] <= head.TS.Time {
			return
		}
	}
	e.granted = true
	e.onGrant(head.Tag, head.TS)
}

// Package obs is the observability subsystem of the two-tier model: a
// typed, zero-allocation event tracer and a metrics registry shared by both
// execution substrates (the deterministic simulator and the live runtime).
//
// The paper's argument is quantitative — Cfixed/Cwireless/Csearch tables,
// wireless-hop counts, significant-move rates — but end-of-run aggregates
// cannot show *when* a handoff stalled or *which* channel ate the
// retransmits. This package records the run itself:
//
//   - an Event is a fixed-size record (virtual time, kind, three int32
//     operands) covering transmissions, deliveries, the mobility protocol
//     (leave/join/disconnect/reconnect/handoff), searches, delivery
//     failures, ARQ activity, fault-injector decisions, and algorithm-level
//     critical-section and token activity;
//   - a Tracer stores events in a fixed-capacity ring buffer (or an
//     unbounded recorder for export), optionally feeding a Metrics registry
//     of per-kind counters and the HDR-style histograms its one table
//     declares, served as Prometheus text at /metrics (Handler);
//   - a Trace (topology + events) round-trips through line-oriented JSONL,
//     so a captured run is an artifact that can be diffed, replayed, and
//     rendered (cmd/mobiletrace).
//
// Hot-path contract: every Record call on a nil *Tracer is a nil-check
// no-op, and Record on a live tracer allocates nothing. The engine guards
// each emission site with a nil check, so a system built without a tracer
// pays one predictable branch per would-be event and nothing else.
//
// The package depends only on internal/sim. The engine records into it at
// its own model-level emission points, EvTransmit among them as it hands
// each record to the substrate; the fault model records its decisions.
package obs

import (
	"sync"
	"sync/atomic"

	"mobiledist/internal/sim"
)

// EventKind classifies one recorded event. The operand meaning per kind is
// documented on the constants; unused operands are zero.
type EventKind uint8

// Event kinds. A trace carries a kind by its name (String), never by its
// number.
const (
	evInvalid EventKind = iota
	// EvTransmit: one message handed to the substrate's FIFO transport.
	// A = flat channel id, B = drawn latency (ticks).
	EvTransmit
	// EvDeliver: a routed message reached its destination MH.
	// A = mh, B = serving mss, C = wireless delivery attempts (1 = direct,
	// each extra is one search-and-chase hop after a move in flight).
	EvDeliver
	// EvLeave: a MSS processed leave(mh). A = mh, B = mss.
	EvLeave
	// EvJoin: mh completed a join. A = mh, B = new mss, C = previous mss
	// (-1 for none).
	EvJoin
	// EvDisconnect: a MSS processed disconnect(mh). A = mh, B = mss.
	EvDisconnect
	// EvReconnect: mh initiated reconnect(). A = mh, B = new mss, C = mss
	// holding the disconnected flag.
	EvReconnect
	// EvHandoff: the reconnect handoff exchange completed. A = mh, B = new
	// mss, C = previous mss.
	EvHandoff
	// EvTokenPass: an algorithm passed its token. A = from mh (-1 for
	// injection), B = to mh.
	EvTokenPass
	// EvCSRequest: mh asked for the critical section. A = mh.
	EvCSRequest
	// EvCSEnter: mh entered the critical section. A = mh.
	EvCSEnter
	// EvCSExit: mh left the critical section. A = mh.
	EvCSExit
	// EvRetransmit: the ARQ sublayer retransmitted after an ack timeout.
	// A = flat channel id, B = retry number for the in-flight frame (1 = first
	// retransmission).
	EvRetransmit
	// EvAck: the ARQ sublayer resolved an in-flight frame. A = flat channel
	// id, B = retransmissions the frame needed (0 = first try).
	EvAck
	// EvSearch: the network searched for a MH. A = origin mss, B = 1 when
	// the search was a stale re-route (footnote-2 case), else 0.
	EvSearch
	// EvFailure: a routed send ended in a disconnected notification.
	// A = mh, B = origin mss.
	EvFailure
	// EvDrop: the fault injector destroyed a wireless frame. A = channel,
	// B = the channel's transmission index, C = 1 when the link was dark (a
	// flap or a crashed station's radio), 0 for random loss.
	EvDrop
	// EvDuplicate: the fault injector duplicated a wireless frame.
	// A = channel, B = transmission index, C = 0.
	EvDuplicate
	// EvReorder: the fault injector released a frame out of order.
	// A = channel, B = transmission index, C = 0.
	EvReorder
	// EvCrashDiscard: a wired transmission died at a crashed station.
	// A = channel, B = transmission index, C = 1 when discarded at the
	// receiver, 0 at the sender.
	EvCrashDiscard
	// EvGroupInform: a group strategy propagated a location update — the
	// always-inform broadcast that follows a member's join (Section 4.2).
	// A = mh that moved, B = mss whose broadcast carries the news.
	EvGroupInform
	// EvGroupViewUpdate: the group-view coordinator committed a view
	// change. A = mss added (-1 for none), B = mss removed (-1 for none),
	// C = view size after the change.
	EvGroupViewUpdate
	// EvGroupStaleLookup: a group send found its sender's local view not
	// usable and fell back to coordinator routing. A = sender mh, B = the
	// mss whose view was stale.
	EvGroupStaleLookup
	// EvPeerSuspect: the hub's liveness tracker marked a cluster peer
	// suspect after K consecutive missed heartbeats. A = peer id, B = role
	// (wire.RoleMSS/RoleMH as int32), C = consecutive missed beats.
	EvPeerSuspect
	// EvPeerDead: a suspect peer crossed the dead deadline; its outbox is
	// cleared and deliveries to it park until resync. A = peer id, B = role,
	// C = consecutive missed beats at declaration.
	EvPeerDead
	// EvPeerRecovered: a suspect or dead peer answered a heartbeat (or a new
	// incarnation attached) and was resynced. A = peer id, B = role, C = the
	// peer's incarnation generation.
	EvPeerRecovered
	// EvSessionEstablished: a datagram session completed its connect
	// handshake. A = session id (low 31 bits), B = 0 on the dialing side,
	// 1 on the accepting side.
	EvSessionEstablished
	// EvPacketSent: one datagram left a session socket. A = session id
	// (low 31 bits), B = packet type, C = datagram bytes on the wire.
	EvPacketSent
	// EvPacketRecv: one datagram passed authentication and the replay
	// window. A = session id, B = packet type, C = datagram bytes.
	EvPacketRecv
	// EvPacketRetransmit: a stream segment was re-sent after its
	// retransmit timeout. A = session id, B = retry number, C = segment
	// bytes.
	EvPacketRetransmit
	// EvPacketReplayDropped: an authenticated datagram was rejected by the
	// sliding replay window (duplicate or out-of-window sequence).
	// A = session id, B = packet sequence (low 31 bits).
	EvPacketReplayDropped
	// EvPacketRTT: an ack resolved a never-retransmitted segment (Karn's
	// rule), yielding one clean RTT sample. A = session id, B = RTT in
	// microseconds.
	EvPacketRTT

	// EvBundleCustody: a DTN bundle was accepted into an MSS's custody
	// store for a disconnected MH (internal/dtn). A = bundle id, B =
	// holder MSS, C = destination MH.
	EvBundleCustody
	// EvBundleTransfer: a bundle replica was shipped between stations
	// (epidemic anti-entropy, spray hand-off, or delivery hand-over).
	// A = bundle id, B = sending MSS, C = receiving MSS.
	EvBundleTransfer
	// EvBundleDelivered: a bundle's primary delivery was handed back to
	// the routing layer after its MH reappeared. A = bundle id, B = the
	// delivering MSS, C = replicas created over the bundle's lifetime
	// (the replication-cost sample).
	EvBundleDelivered
	// EvBundleExpired: a bundle's TTL lapsed before delivery. A = bundle
	// id, B = holder MSS, C = destination MH.
	EvBundleExpired
	// EvBundleDropped: a bundle replica was discarded without delivering
	// — per-MH quota, LRU eviction, duplicate suppression, or a crash
	// wiping a volatile store. A = bundle id, B = holder MSS, C =
	// destination MH.
	EvBundleDropped

	evKindCount // internal: number of kinds, for metrics arrays
)

// The per-kind enable mask packs one bit per kind into a uint64.
const _ uint64 = 1 << evKindCount

var kindNames = [evKindCount]string{
	EvTransmit:         "transmit",
	EvDeliver:          "deliver",
	EvLeave:            "leave",
	EvJoin:             "join",
	EvDisconnect:       "disconnect",
	EvReconnect:        "reconnect",
	EvHandoff:          "handoff",
	EvTokenPass:        "token-pass",
	EvCSRequest:        "cs-request",
	EvCSEnter:          "cs-enter",
	EvCSExit:           "cs-exit",
	EvRetransmit:       "retransmit",
	EvAck:              "ack",
	EvSearch:           "search",
	EvFailure:          "failure",
	EvDrop:             "drop",
	EvDuplicate:        "duplicate",
	EvReorder:          "reorder",
	EvCrashDiscard:     "crash-discard",
	EvGroupInform:      "group-inform",
	EvGroupViewUpdate:  "group-view-update",
	EvGroupStaleLookup: "group-stale-lookup",
	EvPeerSuspect:      "peer-suspect",
	EvPeerDead:         "peer-dead",
	EvPeerRecovered:    "peer-recovered",

	EvSessionEstablished:  "session-established",
	EvPacketSent:          "packet-sent",
	EvPacketRecv:          "packet-recv",
	EvPacketRetransmit:    "packet-retransmit",
	EvPacketReplayDropped: "packet-replay-dropped",
	EvPacketRTT:           "packet-rtt",

	EvBundleCustody:   "bundle-custody",
	EvBundleTransfer:  "bundle-transfer",
	EvBundleDelivered: "bundle-delivered",
	EvBundleExpired:   "bundle-expired",
	EvBundleDropped:   "bundle-dropped",
}

// String returns the kind's wire name (the "k" field of the JSONL format).
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; ok is false for unknown names.
func KindFromString(s string) (EventKind, bool) {
	for k := EventKind(1); k < evKindCount; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return evInvalid, false
}

// Event is one recorded observation: a fixed-size value, so a ring of them
// is a single allocation for the tracer's lifetime.
type Event struct {
	// T is the virtual time the event was recorded at.
	T sim.Time
	// Kind classifies the event; A, B, C are kind-specific operands (see
	// the EventKind constants).
	Kind    EventKind
	A, B, C int32
}

// Tracer records events into a fixed-capacity ring buffer (capacity > 0)
// or an unbounded in-memory recorder (capacity <= 0), optionally feeding a
// Metrics registry. All methods are safe for concurrent use; recording
// normally happens on one execution context (the kernel goroutine or the
// rt executor) while scrapers snapshot from other goroutines.
//
// A nil *Tracer is valid everywhere: Record and the query methods are
// no-ops on it, which is how tracing-disabled systems stay allocation- and
// overhead-free.
type Tracer struct {
	// disabled is the recording seam's admission filter, consulted before
	// the lock: a masked-out event takes one atomic load and returns,
	// touching neither the ring nor the metrics. Bit k set = kind k masked
	// out (zero value: all kinds enabled).
	disabled atomic.Uint64

	mu      sync.Mutex
	ring    []Event // ring mode: fixed backing store
	events  []Event // recorder mode: append-only
	bounded bool
	total   uint64 // events ever recorded
	m, n    int    // topology, 0 when unset or mixed
	mixed   bool
	metrics *Metrics
}

// NewTracer returns a tracer keeping the most recent capacity events; a
// capacity <= 0 keeps every event (the recorder mode tests and trace
// export use).
func NewTracer(capacity int) *Tracer {
	t := &Tracer{}
	if capacity > 0 {
		t.ring = make([]Event, capacity)
		t.bounded = true
	}
	return t
}

// WithMetrics attaches a metrics registry fed by every recorded event and
// returns the tracer. Attach before traffic flows.
func (t *Tracer) WithMetrics(m *Metrics) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.metrics = m
	t.mu.Unlock()
	return t
}

// SetTopology records the (M, N) network shape for trace export. Tracers
// shared across systems of different shapes export a zero topology, which
// disables shape-dependent rendering (the space-time diagram) but not
// diffing.
func (t *Tracer) SetTopology(m, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mixed {
		return
	}
	if (t.m != 0 || t.n != 0) && (t.m != m || t.n != n) {
		t.m, t.n = 0, 0
		t.mixed = true
		return
	}
	t.m, t.n = m, n
}

// EnableOnly masks out every kind except those listed, at the recording
// seam: a masked-out kind is rejected before the tracer's lock, reaches
// neither the ring buffer nor the attached metrics, and its Record call
// allocates nothing. All kinds start enabled; a tracer that should record,
// say, only the mobility protocol calls EnableOnly(MobilityKinds()...).
func (t *Tracer) EnableOnly(kinds ...EventKind) {
	if t == nil {
		return
	}
	mask := ^uint64(0) >> (64 - evKindCount) // all kinds disabled
	for _, k := range kinds {
		if k < evKindCount {
			mask &^= uint64(1) << k
		}
	}
	t.disabled.Store(mask)
}

// Record appends one event. On a nil tracer it is a no-op; on a live one
// it allocates nothing in ring mode (recorder mode amortises appends).
// Events masked out by EnableOnly are rejected here, before the lock and
// the ring, with zero allocation.
func (t *Tracer) Record(now sim.Time, kind EventKind, a, b, c int32) {
	if t == nil || kind >= evKindCount {
		return
	}
	if t.disabled.Load()&(uint64(1)<<kind) != 0 {
		return
	}
	ev := Event{T: now, Kind: kind, A: a, B: b, C: c}
	t.mu.Lock()
	if t.bounded {
		t.ring[t.total%uint64(len(t.ring))] = ev
	} else {
		t.events = append(t.events, ev)
	}
	t.total++
	if t.metrics != nil {
		t.metrics.observe(ev)
	}
	t.mu.Unlock()
}

// Events returns a copy of the retained events in recording order (oldest
// first). In ring mode that is the most recent window.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retained()
}

// retained copies the retained events oldest first. Called under t.mu.
func (t *Tracer) retained() []Event {
	if !t.bounded {
		return append([]Event(nil), t.events...)
	}
	n := min(t.total, uint64(len(t.ring)))
	out := make([]Event, 0, n)
	for i := t.total - n; i < t.total; i++ {
		out = append(out, t.ring[i%uint64(len(t.ring))])
	}
	return out
}

// Snapshot returns the retained events as an exportable Trace carrying the
// recorded topology.
func (t *Tracer) Snapshot() Trace {
	if t == nil {
		return Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Trace{M: t.m, N: t.n, Events: t.retained()}
}

// Filter returns the events for which keep is true, preserving order.
func Filter(events []Event, keep func(Event) bool) []Event {
	var out []Event
	for _, ev := range events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// KindFilter returns a Filter predicate keeping only the listed kinds.
func KindFilter(kinds ...EventKind) func(Event) bool {
	var set [evKindCount]bool
	for _, k := range kinds {
		if k < evKindCount {
			set[k] = true
		}
	}
	return func(ev Event) bool { return ev.Kind < evKindCount && set[ev.Kind] }
}

// MobilityKinds are the mobility-protocol event kinds, the subsequence the
// cross-substrate conformance suite compares.
func MobilityKinds() []EventKind {
	return []EventKind{EvLeave, EvJoin, EvDisconnect, EvReconnect, EvHandoff}
}

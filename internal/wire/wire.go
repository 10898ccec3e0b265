// Package wire defines the binary framing the network runtime
// (internal/netrt) speaks between cluster processes: the hub that hosts the
// engine, the MSS relay nodes on the wired tier, and the MH clients on the
// wireless tier.
//
// A frame is a versioned length-prefixed record:
//
//	offset  field
//	0       magic 'M' 'W'        (2 bytes)
//	2       version              (1 byte, currently 1)
//	3       type                 (1 byte)
//	4       body length          (uvarint)
//	…       body
//
// and the body is a canonical varint tuple in fixed order:
//
//	channel   varint   (flat engine channel id; -1 when not channel-scoped)
//	seq       uvarint  (hub-assigned per-channel sequence number)
//	hop       1 byte   (0 = leaving the hub, 1 = relayed onto the last link)
//	latency   uvarint  (model link latency in ticks)
//	payload   uvarint length + bytes (frame-type-specific blob)
//
// Canonical means minimal: every field has exactly one encoding, so
// encode→decode→re-encode is byte-identical — a property the conformance
// suite asserts on live traffic. The varint idioms (and the
// magic+version header style) follow the trace codec in internal/obs.
//
// Payload blobs are defined here too: Hello (connection handshake),
// Envelope (the model-level classification of a TData frame, derived from
// engine.ChannelLayout), and Handoff (MH retarget/handoff state, carrying
// the address of the next serving MSS).
package wire

import "fmt"

// Version is the protocol version carried in every frame header. Peers
// reject frames from any other version: the cluster is deployed as a unit,
// so version skew is an operator error to surface, not to paper over.
//
// Version history:
//
//	1  initial protocol (THello..TBye)
//	2  crash recovery: THeartbeat and TResync frames, Hello carries an
//	   incarnation generation
const Version = 2

// MaxFrame bounds the wire size of one frame (header + body). Algorithm
// payloads never cross the wire (the engine runs at the hub), so frames are
// small; the bound exists to fail fast on corrupt length prefixes.
const MaxFrame = 1 << 20

// Frame magic: "MW" (mobiledist wire).
const (
	magic0 = 'M'
	magic1 = 'W'
)

// Type discriminates frames.
type Type uint8

// Frame types.
const (
	// THello opens every dialled connection: it identifies the dialler
	// (role + id) and pins the topology (M, N). Payload: Hello.
	THello Type = iota + 1
	// TAttach opens a wireless connection from an MH client to its serving
	// MSS node. Ch carries the MH id; no payload.
	TAttach
	// TData is one model transmission travelling its physical journey:
	// hub → relay (hop 0), relay → destination endpoint (hop 1). Payload:
	// Envelope.
	TData
	// TDelivered confirms that TData (Ch, Seq) reached the far end of its
	// last physical link; the hub then runs the delivery at the model
	// level. No payload.
	TDelivered
	// TRetarget tells an MH client which MSS serves it now (or that it is
	// detached). Payload: Handoff.
	TRetarget
	// TAttached notifies the hub that an MH client completed a wireless
	// attach. Ch carries the MH id; Seq the handoff generation. No payload.
	TAttached
	// TBye asks the receiver to shut down gracefully. No payload.
	TBye
	// THeartbeat probes and answers liveness on a connection. Seq is the
	// sender's beat counter; Hop distinguishes ping (0) from pong (1) —
	// receivers echo a ping back with Hop = 1 and the same Seq. Ch is -1.
	// No payload.
	THeartbeat
	// TResync acknowledges an incarnation to a reattaching peer: the hub
	// sends it after a handshake, carrying the peer's accepted generation in
	// Seq, right before replaying any unconfirmed per-channel outbox suffix.
	// Ch is -1. No payload.
	TResync

	typeCount
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case TAttach:
		return "attach"
	case TData:
		return "data"
	case TDelivered:
		return "delivered"
	case TRetarget:
		return "retarget"
	case TAttached:
		return "attached"
	case TBye:
		return "bye"
	case THeartbeat:
		return "heartbeat"
	case TResync:
		return "resync"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Frame is one wire record. Zero values encode compactly (single-byte
// varints), so control frames cost a handful of bytes.
type Frame struct {
	// Type discriminates the frame.
	Type Type
	// Ch is the flat engine channel id for channel-scoped frames (TData,
	// TDelivered) and doubles as the MH id on TAttach/TAttached. -1
	// otherwise.
	Ch int32
	// Seq is the hub-assigned per-channel sequence number of a TData /
	// TDelivered pair, and the handoff generation on TAttached.
	Seq uint64
	// Hop counts physical links already crossed (0 leaving the hub, 1 on
	// the final link).
	Hop uint8
	// Latency is the model link latency in ticks (TData only).
	Latency uint32
	// Payload is the frame-type-specific blob (Hello, Envelope, Handoff).
	Payload []byte
}

// Role identifies a cluster process in a Hello handshake.
type Role uint8

// Cluster roles.
const (
	// RoleMSS is a wired-tier relay node hosting one station's links.
	RoleMSS Role = iota + 1
	// RoleMH is a mobile-host client on the wireless tier.
	RoleMH
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleMSS:
		return "mss"
	case RoleMH:
		return "mh"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Hello is the THello payload: who is dialling and what topology it was
// configured with. The accepting side rejects mismatched topologies so a
// stale cluster file fails loudly at connect time.
//
// Gen is the dialler's incarnation generation: 0 means "unknown, assign me
// one" (the hub synthesizes the next generation), a positive value claims a
// specific incarnation. The hub fences connections whose claimed generation
// is older than the newest it has admitted for that id, so a superseded
// process cannot corrupt its successor's state.
type Hello struct {
	Role Role
	ID   int32
	M, N int32
	Gen  uint64
}

// Envelope names a channel at the model level: its kind and endpoints
// from engine.ChannelLayout.Decode, as a payload blob. TData frames do not
// carry it (relays route on the frame's Ch); it is kept as a codec for
// tooling that labels wire traffic with model links.
type Envelope struct {
	// Kind is the channel class (engine.ChannelWired/Down/Up as uint8).
	Kind uint8
	// A and B are the kind-specific endpoints: (src,dst) MSS for wired,
	// (mss,mh) for downlinks, (mss,mh) for uplinks.
	A, B int32
}

// Handoff is the TRetarget payload: the mobility protocol's view of where
// an MH is served, plus the physical address to dial. An empty Addr means
// "detach" (the MH disconnected or is between cells).
type Handoff struct {
	// MH is the mobile host being retargeted.
	MH int32
	// MSS is the serving station (-1 when detached).
	MSS int32
	// Prev is the previous station (-1 on initial placement).
	Prev int32
	// Gen is a monotonically increasing handoff generation; clients ignore
	// stale retargets that raced a newer one.
	Gen uint64
	// Addr is the TCP address of the serving MSS node ("" when detached).
	Addr string
}

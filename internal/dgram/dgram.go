// Package dgram is a UDP session layer carrying the wire protocol's frames
// over datagrams. It is the transport the paper actually assumes: a lossy
// packet medium where loss recovery, ordering and duplicate suppression are
// the protocol's problem, not the kernel's.
//
// A session is established with an HMAC-authenticated connect token (minted
// out of band or by any holder of the cluster secret; expiry plus
// server-address binding) and then carries a reliable, ordered,
// authenticated byte stream — so wire.Reader/Writer and everything above
// them run unchanged over either TCP or this layer:
//
//   - every datagram carries a per-direction monotonic packet sequence
//     number and a truncated HMAC-SHA256 tag under a direction-specific
//     key derived from the session key (each side seals under its own
//     direction key, so reflected datagrams fail authentication); the
//     receiver keeps a 256-entry sliding replay window and rejects (and
//     counts) duplicates and out-of-window sequences. Retransmitted data is
//     sent under a fresh packet sequence, so the replay window only ever
//     fires on genuine network duplication or replay. The listener also
//     remembers which (session key, dial nonce) pairs already established
//     a session, so a replayed connect datagram cannot displace a live
//     session or mint zombie ones.
//   - the byte stream is packetized into MTU-sized segments addressed by
//     stream offset; frames larger than one datagram are fragmented across
//     segments and reassembled by contiguity on the receive side.
//   - acks carry a cumulative offset plus selective ranges; in-order data
//     is acked on the next retransmit tick (RTO/4), anything else at once;
//     unacked segments are retransmitted on a timeout with per-segment
//     doubling backoff capped at 8x — the engine ARQ's discipline promoted
//     from sim model to the wire (with a window instead of stop-and-wait).
//   - liveness above the session is the network runtime's heartbeat /
//     generation-fencing machinery; the session itself only gives up after
//     MaxRetries on a segment (or a minute without authenticated
//     traffic) and then surfaces an error so the dialer can re-dial.
package dgram

import (
	"errors"
	"time"

	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// Defaults. The RTO is deliberately snappy: loopback clusters and the
// conformance suite live at sub-millisecond RTTs, and the doubling backoff
// keeps the retransmit load bounded on real links.
const (
	// DefaultMTU is the datagram byte budget (header + body + tag).
	DefaultMTU = 1200
	// DefaultRTO is the initial per-segment retransmit timeout.
	DefaultRTO = 20 * time.Millisecond
	// DefaultMaxRetries is how many retransmits of one segment (or connect
	// attempts of one dial) are tolerated before the session is declared
	// dead. With the capped backoff this is roughly 1.5s of silence.
	DefaultMaxRetries = 12
	// idleTimeout reaps sessions that carry no authenticated traffic at
	// all; the runtime's heartbeats keep live sessions warm.
	idleTimeout = 60 * time.Second
	// acceptBacklog bounds a listener's pending-accept queue.
	acceptBacklog = 16
	// backoffCap bounds the per-segment doubling backoff, mirroring the
	// engine ARQ's 8x cap.
	backoffCap = 8
)

var (
	// ErrSessionDead is returned by Read/Write after the session gave up
	// (retransmit budget exhausted or idle timeout).
	ErrSessionDead = errors.New("dgram: session dead")
	// ErrClosed is returned after a local Close.
	ErrClosed = errors.New("dgram: use of closed session")
)

// Config tunes one endpoint (a Listener or a dialed Conn). The zero value
// selects every default.
type Config struct {
	// MTU is the maximum datagram size in bytes. 0 means DefaultMTU.
	MTU int
	// RTO is the initial retransmit timeout. 0 means DefaultRTO.
	RTO time.Duration
	// MaxRetries bounds per-segment retransmits and connect attempts.
	// 0 means DefaultMaxRetries.
	MaxRetries int
	// Trace, when non-nil, receives session/packet events
	// (EvSessionEstablished, EvPacketSent/Recv/Retransmit,
	// EvPacketReplayDropped, EvPacketRTT).
	Trace *obs.Tracer
	// TraceNow supplies the timestamp for trace events. Nil means
	// microseconds of wall clock since the process observed the package.
	TraceNow func() sim.Time
}

var pkgStart = time.Now()

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = DefaultMTU
	}
	if c.MTU < headerSize+tagSize+dataOverhead+1 {
		c.MTU = headerSize + tagSize + dataOverhead + 1 // room for 1 stream byte
	}
	if c.RTO == 0 {
		c.RTO = DefaultRTO
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.TraceNow == nil {
		c.TraceNow = func() sim.Time { return sim.Time(time.Since(pkgStart) / time.Microsecond) }
	}
	return c
}

// Stats is a point-in-time copy of one session's datagram counters.
type Stats struct {
	SessionID       uint64
	PacketsSent     uint64 // datagrams written, including retransmits
	PacketsReceived uint64 // datagrams accepted (authenticated, in-window)
	Retransmits     uint64 // data segments re-sent after an RTO
	ReplayDrops     uint64 // authenticated datagrams rejected by the replay window
	BadPackets      uint64 // datagrams rejected before the replay window (MAC, header)
}

package netrt

import (
	"encoding/json"
	"net"
	"net/http"
	"time"

	"mobiledist/internal/dgram"
	"mobiledist/internal/wire"
)

// This file is the runtime's operational surface: /health (cheap liveness
// probe) and /status (the full JSON picture — role, incarnation generation,
// peer liveness table, outbox depths) on hub, node, and client. The shape
// follows the udpx gateway idiom the ROADMAP points at: every cluster
// process answers the same two endpoints, so fleet tooling needs one
// scraper. cmd/mobilenode serves these via -health addr.

// peerStatusJSON is one row of the hub's /status peer table.
type peerStatusJSON struct {
	Role      string `json:"role"`
	ID        int    `json:"id"`
	State     string `json:"state"`
	Connected bool   `json:"connected"`
	Gen       uint64 `json:"gen"`
	Missed    int    `json:"missed"`
	Misses    int64  `json:"misses"`
	// LastPongMS is milliseconds since the peer last answered a heartbeat
	// (-1 before its first connection).
	LastPongMS int64 `json:"last_pong_ms"`
	Outbox     int   `json:"outbox"`
}

// hubStatusJSON is the hub's /status document.
type hubStatusJSON struct {
	Role           string             `json:"role"`
	Transport      string             `json:"transport"`
	M              int                `json:"m"`
	N              int                `json:"n"`
	DeadPeers      int                `json:"dead_peers"`
	ParkedOnDead   int64              `json:"parked_on_dead"`
	PendingRecords int64              `json:"pending_records"`
	StrayConfirms  int64              `json:"stray_confirms"`
	HeartbeatRTT   rttJSON            `json:"heartbeat_rtt"`
	Peers          []peerStatusJSON   `json:"peers"`
	Dgram          []dgramSessionJSON `json:"dgram_sessions,omitempty"`
}

// dgramSessionJSON is one UDP session's datagram counters (/status, UDP
// transport only): the replay and retransmit numbers the issue's acceptance
// criteria ask operators to watch.
type dgramSessionJSON struct {
	SessionID   uint64 `json:"session_id"`
	Sent        uint64 `json:"packets_sent"`
	Received    uint64 `json:"packets_received"`
	Retransmits uint64 `json:"retransmits"`
	ReplayDrops uint64 `json:"replay_drops"`
	BadPackets  uint64 `json:"bad_packets"`
}

// dgramSessionRows converts dgram session stats to /status rows.
func dgramSessionRows(stats []dgram.Stats) []dgramSessionJSON {
	if len(stats) == 0 {
		return nil
	}
	rows := make([]dgramSessionJSON, 0, len(stats))
	for _, st := range stats {
		rows = append(rows, dgramSessionJSON{
			SessionID:   st.SessionID,
			Sent:        st.PacketsSent,
			Received:    st.PacketsReceived,
			Retransmits: st.Retransmits,
			ReplayDrops: st.ReplayDrops,
			BadPackets:  st.BadPackets,
		})
	}
	return rows
}

// listenerSessions reports the dgram sessions behind a listener, or nil on
// the TCP transport.
func listenerSessions(ln net.Listener) []dgramSessionJSON {
	if dl, ok := ln.(*dgram.Listener); ok {
		return dgramSessionRows(dl.Sessions())
	}
	return nil
}

// connSessions reports the dgram counters of individual connections (the
// client side holds conns, not listeners), skipping TCP conns and nils.
func connSessions(conns ...net.Conn) []dgramSessionJSON {
	var stats []dgram.Stats
	for _, c := range conns {
		if dc, ok := c.(*dgram.Conn); ok && dc != nil {
			stats = append(stats, dc.Stats())
		}
	}
	return dgramSessionRows(stats)
}

// transportName resolves the configured substrate name for /status.
func transportName(kind string) string {
	if kind == "" {
		return TransportTCP
	}
	return kind
}

type rttJSON struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P99US  int64   `json:"p99_us"`
}

// healthJSON is the /health document every role answers.
type healthJSON struct {
	Status    string `json:"status"`
	Role      string `json:"role"`
	DeadPeers int    `json:"dead_peers,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// PeerHealth snapshots the hub's liveness table: one row per cluster peer
// (stations first, then mobile hosts), with outbox depths. Safe to call
// from any goroutine at any point in the lifecycle.
func (s *System) PeerHealth() []PeerHealth {
	return s.lv.snapshot(func(role wire.Role, id int) int {
		return s.peerFor(role, id).outboxDepth()
	})
}

// PeerStateOf reports the liveness verdict for one peer.
func (s *System) PeerStateOf(role wire.Role, id int) PeerState {
	return s.lv.state(role, id)
}

// ParkedOnDead reports how many transmissions have parked on dead peers so
// far (the /status counterpart of engine Stats.ParkedOnDeadMSS, readable
// without the executor).
func (s *System) ParkedOnDead() int64 { return s.parked.Load() }

// HealthHandler returns the hub's operational endpoints: /health answers
// "ok" while no peer is dead ("degraded" otherwise, still HTTP 200 — a dead
// relay degrades the hub, it does not kill it), and /status serves the full
// liveness table. Mount it wherever the deployment terminates HTTP
// (cmd/mobilenode -health).
func (s *System) HealthHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		h := healthJSON{Status: "ok", Role: "hub", DeadPeers: s.lv.deadCount()}
		if h.DeadPeers > 0 {
			h.Status = "degraded"
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		table := s.PeerHealth()
		doc := hubStatusJSON{
			Role:           "hub",
			Transport:      s.Transport(),
			M:              s.cfg.M,
			N:              s.cfg.N,
			ParkedOnDead:   s.parked.Load(),
			PendingRecords: s.inflight.Load(),
			StrayConfirms:  s.strays.Load(),
			Peers:          make([]peerStatusJSON, 0, len(table)),
			Dgram:          listenerSessions(s.ln),
		}
		doc.HeartbeatRTT.Count, doc.HeartbeatRTT.MeanUS, doc.HeartbeatRTT.P99US = s.lv.rttSummary()
		for _, p := range table {
			row := peerStatusJSON{
				Role:       p.Role.String(),
				ID:         p.ID,
				State:      p.State.String(),
				Connected:  p.Connected,
				Gen:        p.Gen,
				Missed:     p.Missed,
				Misses:     p.Misses,
				LastPongMS: -1,
				Outbox:     p.OutboxDepth,
			}
			if !p.LastPong.IsZero() {
				row.LastPongMS = time.Since(p.LastPong).Milliseconds()
			}
			if p.State == PeerDead {
				doc.DeadPeers++
			}
			doc.Peers = append(doc.Peers, row)
		}
		writeJSON(w, doc)
	})
	return mux
}

// nodeStatusJSON is a relay node's /status document.
type nodeStatusJSON struct {
	Role         string             `json:"role"`
	Transport    string             `json:"transport"`
	ID           int                `json:"id"`
	Gen          uint64             `json:"gen"`
	HubConnected bool               `json:"hub_connected"`
	Clients      int                `json:"clients"`
	HubOutbox    int                `json:"hub_outbox"`
	PipeDepth    int                `json:"pipe_depth"` // frames on the due queue
	Rejected     int64              `json:"rejected_frames"`
	Dgram        []dgramSessionJSON `json:"dgram_sessions,omitempty"`
}

// HealthHandler returns the relay node's operational endpoints (/health,
// /status): generation, hub connectivity, attached clients, queue depths.
func (n *Node) HealthHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		h := healthJSON{Status: "ok", Role: "mss"}
		if !n.hub.connected() {
			h.Status = "degraded"
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		doc := nodeStatusJSON{
			Role:         "mss",
			Transport:    transportName(n.cfg.Cluster.Transport),
			ID:           n.cfg.ID,
			Gen:          n.gen.Load(),
			HubConnected: n.hub.connected(),
			HubOutbox:    n.hub.outboxDepth(),
			Rejected:     n.rejected.Load(),
			Dgram:        listenerSessions(n.ln),
		}
		n.linkMu.Lock()
		doc.Clients = len(n.links)
		n.linkMu.Unlock()
		n.dueMu.Lock()
		doc.PipeDepth = n.due.Len()
		n.dueMu.Unlock()
		writeJSON(w, doc)
	})
	return mux
}

// clientStatusJSON is an MH client's /status document.
type clientStatusJSON struct {
	Role           string             `json:"role"`
	Transport      string             `json:"transport"`
	ID             int                `json:"id"`
	Gen            uint64             `json:"gen"`
	HubConnected   bool               `json:"hub_connected"`
	Attached       bool               `json:"attached"`
	TargetMSS      int32              `json:"target_mss"`
	PendingUplinks int                `json:"pending_uplinks"`
	Rejected       int64              `json:"rejected_frames"`
	Dgram          []dgramSessionJSON `json:"dgram_sessions,omitempty"`
}

// HealthHandler returns the MH client's operational endpoints.
func (c *Client) HealthHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		h := healthJSON{Status: "ok", Role: "mh"}
		if !c.hub.connected() {
			h.Status = "degraded"
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		doc := clientStatusJSON{
			Role:         "mh",
			Transport:    transportName(c.cfg.Cluster.Transport),
			ID:           c.cfg.ID,
			Gen:          c.gen.Load(),
			HubConnected: c.hub.connected(),
			Rejected:     c.rejected.Load(),
		}
		c.mu.Lock()
		l := c.link
		doc.TargetMSS = c.target.MSS
		c.mu.Unlock()
		conns := []net.Conn{c.hub.currentConn()}
		if l != nil {
			doc.Attached, doc.PendingUplinks = true, l.held()
			conns = append(conns, l.conn)
		}
		doc.Dgram = connSessions(conns...)
		writeJSON(w, doc)
	})
	return mux
}

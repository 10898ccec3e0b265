package netrt

import (
	"net"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/dgram"
	"mobiledist/internal/obs"
)

// TestClusterValidateTransport pins the config surface: the two known
// substrate names (and empty) pass, anything else is refused.
func TestClusterValidateTransport(t *testing.T) {
	base := ClusterConfig{Hub: "127.0.0.1:1", MSS: []string{"127.0.0.1:2"}, M: 1, N: 1}
	for _, tr := range []string{"", TransportTCP, TransportUDP} {
		c := base
		c.Transport = tr
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(transport=%q) = %v, want nil", tr, err)
		}
	}
	c := base
	c.Transport = "carrier-pigeon"
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Errorf("Validate(unknown transport) = %v, want naming error", err)
	}
}

// TestLoopbackUDPFIFOAcrossMoves is the TCP FIFO test on the datagram
// substrate: an ordered MH→MH stream across two handoffs, every hop an
// authenticated UDP session. Delivery order and completeness must match the
// model exactly — the dgram layer's retransmit and reassembly are invisible
// above the net.Conn seam.
func TestLoopbackUDPFIFOAcrossMoves(t *testing.T) {
	const batch = 8
	cfg := DefaultConfig(3, 6)
	cfg.Transport = TransportUDP
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	if got := lb.Sys.Transport(); got != TransportUDP {
		t.Fatalf("Sys.Transport() = %q, want %q", got, TransportUDP)
	}

	var received []int
	p := &probe{onMH: func(_ core.Context, at core.MHID, msg core.Message) {
		if at == 1 {
			received = append(received, msg.(int))
		}
	}}
	ctx := lb.Sys.Register(p)
	lb.Sys.Start()
	waitReady(t, lb)

	send := func(from, to int) {
		lb.Sys.Do(func() {
			for i := from; i < to; i++ {
				if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
					t.Errorf("SendMHToMH: %v", err)
				}
			}
		})
	}
	send(0, batch)
	lb.Sys.Move(1, 2)
	send(batch, 2*batch)
	lb.Sys.Move(1, 0)
	send(2*batch, 3*batch)
	settle(t, lb)

	var snap []int
	lb.Sys.Do(func() { snap = append(snap, received...) })
	if len(snap) != 3*batch {
		t.Fatalf("received %d messages, want %d", len(snap), 3*batch)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("received[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

// TestUDPDialFailureIsNilConn: a failed datagram dial yields a nil
// net.Conn, not a nil *dgram.Conn that compares non-nil — the client's
// redial loop keeps the last attempt's conn and would write to it.
func TestUDPDialFailureIsNilConn(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close() // nothing listens there now: every connect is refused
	tr := &udpTransport{secret: secretBytes(""), cfg: dgram.Config{RTO: time.Millisecond, MaxRetries: 2}}
	conn, err := tr.dial(addr)
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if conn != nil {
		t.Fatalf("failed dial returned a non-nil net.Conn %#v", conn)
	}
}

// TestUDPHubTracesItsSessions: the hub's datagram sessions record into the
// hub's tracer, so a traced UDP cluster's /metrics carries the dgram RTT
// histogram the session layer samples, beside the model's own events.
func TestUDPHubTracesItsSessions(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	cfg.Transport = TransportUDP
	cfg.Obs = obs.NewTracer(1 << 12).WithMetrics(obs.NewMetrics())
	lb := startLoopback(t, cfg)
	defer lb.Stop()
	ctx := lb.Sys.Register(&probe{})
	lb.Sys.Start()
	waitReady(t, lb)
	lb.Sys.Do(func() {
		for i := 0; i < 8; i++ {
			if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
				t.Errorf("SendMHToMH: %v", err)
			}
		}
	})
	settle(t, lb)

	// A session acks in-order data on its retransmit tick, so the hub's
	// first RTT sample can land after the model has drained.
	rtt := regexp.MustCompile(`(?m)^mobiledist_dgram_rtt_us_count (\d+)$`)
	var rec *httptest.ResponseRecorder
	var m []string
	for deadline := time.Now().Add(idleTimeout); ; time.Sleep(5 * time.Millisecond) {
		rec = httptest.NewRecorder()
		lb.Sys.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		m = rtt.FindStringSubmatch(rec.Body.String())
		if (m != nil && m[1] != "0") || time.Now().After(deadline) {
			break
		}
	}
	if m == nil || m[1] == "0" {
		t.Errorf("hub /metrics has no dgram RTT samples:\n%s", rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `mobiledist_events_total{kind="deliver"} 8`) {
		t.Errorf("hub /metrics lost the model's deliver count:\n%s", rec.Body)
	}
}

// TestLoopbackUDPRestartNode crash-restarts a relay over the datagram
// substrate: the UDP socket must rebind, the new incarnation's sessions
// re-establish, and traffic drain — the generation fence and resync replay
// working identically to TCP.
func TestLoopbackUDPRestartNode(t *testing.T) {
	cfg := DefaultConfig(2, 4)
	cfg.Transport = TransportUDP
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	var got int
	p := &probe{onMH: func(_ core.Context, at core.MHID, _ core.Message) {
		if at == 1 {
			got++
		}
	}}
	ctx := lb.Sys.Register(p)
	lb.Sys.Start()
	waitReady(t, lb)

	lb.Sys.Do(func() {
		for i := 0; i < 4; i++ {
			if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
				t.Errorf("SendMHToMH: %v", err)
			}
		}
	})
	settle(t, lb)

	if err := lb.RestartNode(0); err != nil {
		t.Fatalf("RestartNode over udp: %v", err)
	}
	waitReady(t, lb)
	lb.Sys.Do(func() {
		for i := 4; i < 8; i++ {
			if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
				t.Errorf("SendMHToMH: %v", err)
			}
		}
	})
	settle(t, lb)

	var snap int
	lb.Sys.Do(func() { snap = got })
	if snap != 8 {
		t.Fatalf("delivered %d messages across the restart, want 8", snap)
	}
}

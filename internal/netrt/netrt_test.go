package netrt

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"mobiledist/internal/core"
	"mobiledist/internal/cost"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/wire"
)

const idleTimeout = 20 * time.Second

// probe is a minimal algorithm giving tests a Context and delivery hooks.
type probe struct {
	onMH  func(ctx core.Context, at core.MHID, msg core.Message)
	onMSS func()
}

func (p *probe) Name() string { return "netrt-probe" }

func (p *probe) HandleMSS(core.Context, core.MSSID, core.From, core.Message) {
	if p.onMSS != nil {
		p.onMSS()
	}
}

func (p *probe) HandleMH(ctx core.Context, at core.MHID, msg core.Message) {
	if p.onMH != nil {
		p.onMH(ctx, at, msg)
	}
}

func startLoopback(t *testing.T, cfg Config) *Loopback {
	t.Helper()
	lb, err := StartLoopback(cfg)
	if err != nil {
		t.Fatalf("StartLoopback: %v", err)
	}
	return lb
}

func waitReady(t *testing.T, lb *Loopback) {
	t.Helper()
	if !lb.Sys.WaitReady(idleTimeout) {
		t.Fatal("cluster did not become ready")
	}
}

func settle(t *testing.T, lb *Loopback) {
	t.Helper()
	if !lb.Sys.WaitIdle(idleTimeout) {
		status := httptest.NewRecorder()
		lb.Sys.HealthHandler().ServeHTTP(status, httptest.NewRequest("GET", "/status", nil))
		t.Fatalf("network did not drain\nhub /status: %s", status.Body)
	}
}

// TestLoopbackFIFOAndPrefixAcrossMoves sends an ordered MH→MH stream while
// the destination switches cells twice: everything must arrive, in order,
// having crossed real TCP links.
func TestLoopbackFIFOAndPrefixAcrossMoves(t *testing.T) {
	const batch = 8
	lb := startLoopback(t, DefaultConfig(3, 6))
	defer lb.Stop()

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

// TestLoopbackTokenRingWithChurn runs the R2 token mutex while hosts move,
// disconnect and reconnect: every request is granted exactly once and the
// system drains.
func TestLoopbackTokenRingWithChurn(t *testing.T) {
	const k = 4
	lb := startLoopback(t, DefaultConfig(3, 6))
	defer lb.Stop()

	entries := make(map[core.MHID]int)
	r2, err := ring.NewR2(lb.Sys, ring.VariantCounter, ring.Options{
		Hold:    2,
		OnEnter: func(mh core.MHID) { entries[mh]++ },
	}, 2, nil)
	if err != nil {
		t.Fatalf("NewR2: %v", err)
	}
	lb.Sys.Start()
	waitReady(t, lb)

	lb.Sys.Do(func() {
		for i := 0; i < k; i++ {
			if err := r2.Request(core.MHID(i)); err != nil {
				t.Errorf("Request: %v", err)
			}
		}
	})
	settle(t, lb)
	lb.Sys.Move(1, 2)
	lb.Sys.Do(func() {
		if err := r2.Start(); err != nil {
			t.Errorf("Start: %v", err)
		}
	})
	lb.Sys.Move(4, 0)
	lb.Sys.Disconnect(5)
	settle(t, lb)
	lb.Sys.Reconnect(5, 1)
	settle(t, lb)

	var snap map[core.MHID]int
	lb.Sys.Do(func() {
		snap = make(map[core.MHID]int, len(entries))
		for mh, c := range entries {
			snap[mh] = c
		}
	})
	for i := 0; i < k; i++ {
		if snap[core.MHID(i)] != 1 {
			t.Errorf("mh%d entered the CS %d times, want 1", i, snap[core.MHID(i)])
		}
	}
	st := lb.Sys.Stats()
	if st.Moves != 2 || st.Disconnects != 1 || st.Reconnects != 1 {
		t.Errorf("stats = %d moves / %d disconnects / %d reconnects, want 2/1/1",
			st.Moves, st.Disconnects, st.Reconnects)
	}
}

// TestLoopbackWireBytesRoundTrip pins the acceptance criterion that a
// seeded loopback run's wire traffic round-trips byte-identically:
// every frame any process writes is decoded and re-encoded, and the bytes
// must match.
func TestLoopbackWireBytesRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var frames int
	cfg := DefaultConfig(2, 4)
	cfg.Seed = 7
	cfg.FrameTap = func(raw []byte, f wire.Frame) {
		dec, n, err := wire.DecodeFrame(raw)
		if err != nil {
			t.Errorf("tap: undecodable frame bytes: %v", err)
			return
		}
		if n != len(raw) {
			t.Errorf("tap: frame decoded %d of %d bytes", n, len(raw))
		}
		re, err := wire.AppendFrame(nil, dec)
		if err != nil {
			t.Errorf("tap: re-encode: %v", err)
			return
		}
		if !bytes.Equal(raw, re) {
			t.Errorf("tap: re-encode differs for %v frame:\n raw=%x\n  re=%x", f.Type, raw, re)
		}
		mu.Lock()
		frames++
		mu.Unlock()
	}
	lb := startLoopback(t, cfg)
	defer lb.Stop()

	var got int
	p := &probe{onMH: func(_ core.Context, at core.MHID, _ core.Message) { got++ }}
	ctx := lb.Sys.Register(p)
	lb.Sys.Start()
	waitReady(t, lb)
	lb.Sys.Do(func() {
		for i := 0; i < 10; i++ {
			if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
				t.Errorf("SendMHToMH: %v", err)
			}
		}
	})
	lb.Sys.Move(1, 0)
	settle(t, lb)

	mu.Lock()
	n := frames
	mu.Unlock()
	if n == 0 {
		t.Fatal("frame tap observed no traffic")
	}
}

// TestLoopbackShutdownLeaksNoGoroutines is the goleak-style counter check:
// after a full run and Stop, the goroutine count must return to (about)
// where it started.
func TestLoopbackShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	lb := startLoopback(t, DefaultConfig(3, 5))
	ctx := lb.Sys.Register(&probe{})
	lb.Sys.Start()
	waitReady(t, lb)
	lb.Sys.Do(func() {
		for i := 0; i < 5; i++ {
			if err := ctx.SendMHToMH(0, 1, i, cost.CatAlgorithm); err != nil {
				t.Errorf("SendMHToMH: %v", err)
			}
		}
	})
	lb.Sys.Move(2, 0)
	settle(t, lb)
	lb.Stop()

	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak retries (runtime shutdown of conns is async) until
// the goroutine count returns to the baseline or a deadline passes.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutine leak: %d before, %d after shutdown\n%s", baseline, now, buf)
}

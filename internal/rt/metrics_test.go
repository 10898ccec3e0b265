package rt

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/obs"
)

var eventsTotalRe = regexp.MustCompile(`mobiledist_events_total\{kind="([a-z-]+)"\} (\d+)`)

// scrapeCounters fetches /metrics and parses the per-kind event counters.
func scrapeCounters(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	counts := make(map[string]uint64)
	for _, m := range eventsTotalRe.FindAllStringSubmatch(string(body), -1) {
		v, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatalf("bad counter value %q", m[2])
		}
		counts[m[1]] = v
	}
	return counts
}

func TestMetricsEndpointDuringLiveRun(t *testing.T) {
	const m, n = 3, 6
	cfg := DefaultConfig(m, n)
	cfg.Obs = obs.NewTracer(0).WithMetrics(obs.NewMetrics())
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Tracer() != cfg.Obs {
		t.Fatal("Tracer() does not expose the configured tracer")
	}
	srv := httptest.NewServer(sys.MetricsHandler())
	defer srv.Close()

	sys.Start()
	defer sys.Stop()

	// Scrape while mobility is in flight: counters must be monotone
	// non-decreasing across scrapes (the tracer locks, scrapes snapshot).
	var scrapes []map[string]uint64
	scrapes = append(scrapes, scrapeCounters(t, srv.URL))
	for i := 0; i < 8; i++ {
		sys.Move(core.MHID(i%n), core.MSSID((i+1)%m))
		if i == 3 {
			scrapes = append(scrapes, scrapeCounters(t, srv.URL))
		}
	}
	sys.Disconnect(core.MHID(0))
	scrapes = append(scrapes, scrapeCounters(t, srv.URL))
	sys.Reconnect(core.MHID(0), core.MSSID(2))
	if !sys.WaitIdle(idleTimeout) {
		t.Fatal("system did not go idle")
	}
	scrapes = append(scrapes, scrapeCounters(t, srv.URL))

	for i := 1; i < len(scrapes); i++ {
		for kind, prev := range scrapes[i-1] {
			if cur := scrapes[i][kind]; cur < prev {
				t.Errorf("counter %q went backwards: scrape %d had %d, scrape %d has %d", kind, i-1, prev, i, cur)
			}
		}
	}

	// After quiescence the scraped counters must agree with Stats.
	stats := sys.Stats()
	final := scrapes[len(scrapes)-1]
	for kind, want := range map[string]int64{
		"disconnect": stats.Disconnects,
		"reconnect":  stats.Reconnects,
		"search":     stats.Searches,
		"leave":      stats.Moves,
	} {
		if got := int64(final[kind]); got != want {
			t.Errorf("final %q counter = %d, want %d (Stats: %+v)", kind, got, want, stats)
		}
	}
	if final["join"] == 0 || final["transmit"] == 0 {
		t.Errorf("expected join and transmit events, got %v", final)
	}
}

func TestMetricsHandlerWithoutTracer(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(2, 2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	sys.MetricsHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("tracerless handler returned %d, want 404", rec.Code)
	}
}

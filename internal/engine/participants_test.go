package engine_test

import (
	"testing"

	"mobiledist/internal/core"
	"mobiledist/internal/engine"
	"mobiledist/internal/group"
	"mobiledist/internal/multicast"
	"mobiledist/internal/mutex/lamport"
	"mobiledist/internal/mutex/ring"
	"mobiledist/internal/proxy"
)

// placed builds a 3-station, 6-host system with mh i in cell i mod 3 and
// mh5 disconnected (its disconnect has reached mss2).
func placed(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(3, 6)
	cfg.Placement = func(mh core.MHID) core.MSSID { return core.MSSID(int(mh) % 3) }
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Disconnect(5); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, st := sys.Where(5); st != core.StatusDisconnected {
		t.Fatalf("mh5 is %v after Run, want disconnected", st)
	}
	return sys
}

func TestParticipantsSlotsAndCells(t *testing.T) {
	sys := placed(t)
	p, err := core.NewParticipants(sys, []core.MHID{4, 1, 5})
	if err != nil {
		t.Fatalf("NewParticipants: %v", err)
	}
	if p.Len() != 3 || p.M() != 3 {
		t.Fatalf("Len, M = %d, %d, want 3, 3", p.Len(), p.M())
	}
	for slot, want := range []struct {
		mh   core.MHID
		cell core.MSSID
		ok   bool
	}{{4, 1, true}, {1, 1, true}, {5, 0, false}} {
		if got := p.Host(slot); got != want.mh {
			t.Errorf("Host(%d) = mh%d, want mh%d", slot, got, want.mh)
		}
		if got, ok := p.Slot(want.mh); !ok || got != slot {
			t.Errorf("Slot(mh%d) = %d, %v, want %d, true", want.mh, got, ok, slot)
		}
		if cell, ok := p.Cell(slot); ok != want.ok || ok && cell != want.cell {
			t.Errorf("Cell(%d) = mss%d, %v, want mss%d, %v", slot, cell, ok, want.cell, want.ok)
		}
	}
	for _, mh := range []core.MHID{-1, 0, 2, 3, 6, 99} {
		if p.Has(mh) {
			t.Errorf("Has(mh%d) = true for a non-participant", mh)
		}
	}
}

// TestParticipantsCellIsTheListingCell: a host that has started a move or
// a disconnect stays in its old cell's local list until the uplink
// arrives, and the set places it there, as the station's own list does.
func TestParticipantsCellIsTheListingCell(t *testing.T) {
	sys := placed(t)
	if err := sys.Move(0, 2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := sys.Disconnect(4); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	p, err := core.NewParticipants(sys, []core.MHID{0, 4, 5})
	if err != nil {
		t.Fatalf("NewParticipants: %v", err)
	}
	for slot, want := range []struct {
		cell core.MSSID
		ok   bool
	}{{0, true}, {1, true}, {0, false}} {
		if cell, ok := p.Cell(slot); ok != want.ok || ok && cell != want.cell {
			t.Errorf("Cell(%d) = mss%d, %v, want mss%d, %v", slot, cell, ok, want.cell, want.ok)
		}
	}
}

// TestHostConstructorsRejectBadHostLists runs every constructor that takes
// a host list over the lists no network of 6 hosts can run: each must
// return an error and leave nothing registered.
func TestHostConstructorsRejectBadHostLists(t *testing.T) {
	ctors := []struct {
		name string
		new  func(core.Registrar, []core.MHID) error
	}{
		{"L1", func(r core.Registrar, h []core.MHID) error {
			_, err := lamport.NewL1(r, h, lamport.Options{})
			return err
		}},
		{"R1", func(r core.Registrar, h []core.MHID) error {
			_, err := ring.NewR1(r, h, ring.Options{}, false, 1)
			return err
		}},
		{"proxy", func(r core.Registrar, h []core.MHID) error {
			_, err := proxy.New(r, proxy.NewStaticEcho(), h, proxy.Options{Scope: proxy.ScopeLocal})
			return err
		}},
		{"PureSearch", func(r core.Registrar, h []core.MHID) error {
			_, err := group.NewPureSearch(r, h, group.Options{})
			return err
		}},
		{"AlwaysInform", func(r core.Registrar, h []core.MHID) error {
			_, err := group.NewAlwaysInform(r, h, group.Options{})
			return err
		}},
		{"LocationView", func(r core.Registrar, h []core.MHID) error {
			_, err := group.NewLocationView(r, h, group.LocationViewOptions{})
			return err
		}},
		{"multicast", func(r core.Registrar, h []core.MHID) error {
			_, err := multicast.New(r, h, multicast.Options{})
			return err
		}},
	}
	bad := []struct {
		name  string
		hosts []core.MHID
	}{
		{"empty", nil},
		{"duplicate", []core.MHID{0, 3, 0}},
		{"negative", []core.MHID{0, -1}},
		{"N", []core.MHID{0, 6}},
		{"beyond N", []core.MHID{0, 99}},
	}
	for _, c := range ctors {
		for _, b := range bad {
			t.Run(c.name+"/"+b.name, func(t *testing.T) {
				sys := placed(t)
				if err := c.new(sys, b.hosts); err == nil {
					t.Fatalf("accepted %v on a network of 6 hosts", b.hosts)
				}
				if n := sys.Engine().Registered(); n != 0 {
					t.Errorf("%d algorithms registered after the error, want 0", n)
				}
			})
		}
		t.Run(c.name+"/good", func(t *testing.T) {
			if err := c.new(placed(t), []core.MHID{0, 1, 2, 3, 4}); err != nil {
				t.Fatalf("rejected a good host list: %v", err)
			}
		})
	}
}

// TestOfNeedsAnEngine: a registrar that hides its engine is refused.
func TestOfNeedsAnEngine(t *testing.T) {
	sys := placed(t)
	if e, err := engine.Of(sys); err != nil || e != sys.Engine() {
		t.Fatalf("Of(System) = %p, %v, want the system's engine", e, err)
	}
	if _, err := engine.Of(hidden{sys}); err == nil {
		t.Fatal("Of accepted a registrar with no engine")
	}
	if _, err := core.NewParticipants(hidden{sys}, []core.MHID{0}); err == nil {
		t.Fatal("NewParticipants accepted a registrar with no engine")
	}
}

// hidden is a registrar that does not expose its engine.
type hidden struct{ r core.Registrar }

func (h hidden) Register(alg core.Algorithm) core.Context { return h.r.Register(alg) }

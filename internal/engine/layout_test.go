package engine

import (
	"math"
	"strconv"
	"testing"
	"unsafe"

	"mobiledist/internal/cost"
)

// TestDeliveryRecLayout pins the sizes the sim event path is tuned for
// (DESIGN §7.2): a record in the 128-byte size class is two cache lines, a
// larger one lands in the 144- or 160-byte class and straddles three or
// four; routeOpts is a quarter of the record; a host's state is 8 bytes, so
// the 10^5-host table stays in L2.
func TestDeliveryRecLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"DeliveryRec", unsafe.Sizeof(DeliveryRec{}), 128},
		{"routeOpts", unsafe.Sizeof(routeOpts{}), 32},
		{"mhState", unsafe.Sizeof(mhState{}), 8},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte budget (DESIGN §7.2: hot fields first, ARQ/timer/wrapper fields last, no padding holes)", c.name, c.size, c.max)
		}
	}
}

// TestConfigRejectsIDsBeyondInt32: MSSID and MHID are int32, so a config
// whose M or N does not fit one is refused up front rather than wrapping.
func TestConfigRejectsIDsBeyondInt32(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed MaxInt32")
	}
	base := Config{
		M: 4, N: 8, Params: cost.DefaultParams(),
		Wired: FixedDelay(1), Wireless: FixedDelay(1), Travel: FixedDelay(1),
		SearchMode: SearchAbstract,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config: %v", err)
	}
	big := int64(math.MaxInt32)
	for _, c := range []struct {
		name string
		m, n int64
		ok   bool
	}{
		{"M=MaxInt32", big, 8, true},
		{"N=MaxInt32", 4, big, true},
		{"M=MaxInt32+1", big + 1, 8, false},
		{"N=MaxInt32+1", 4, big + 1, false},
	} {
		cfg := base
		cfg.M, cfg.N = int(c.m), int(c.n)
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

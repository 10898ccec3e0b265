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
// the 10^5-host table stays in L2; a waiter block is two cache lines too.
// Pooled records and blocks must also sit on 128-byte boundaries.
func TestDeliveryRecLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"DeliveryRec", unsafe.Sizeof(DeliveryRec{}), 128},
		{"routeOpts", unsafe.Sizeof(routeOpts{}), 32},
		{"mhState", unsafe.Sizeof(mhState{}), 8},
		{"waitBlock", unsafe.Sizeof(waitBlock{}), 128},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte budget (DESIGN §7.2: hot fields first, ARQ/timer/fault fields last, no padding holes)", c.name, c.size, c.max)
		}
	}

	// A record or waiter block spans exactly two cache lines only if it
	// also starts on a 128-byte boundary. Both come from slabs, and the
	// allocator puts an 8-byte header in front of a pointerful object
	// between 512 bytes and 32 KB, so check every record drawn across four
	// slabs and every block of two.
	e, _ := newWaiterEngine(t, 2, 2)
	for i := 0; i < slabMin*waitBlockRecs+1; i++ {
		rec := e.newRec(opRouteResume)
		if a := uintptr(unsafe.Pointer(rec)); a%128 != 0 {
			t.Fatalf("pooled record %d at %#x is %d bytes past a 128-byte boundary, so it straddles three cache lines (DESIGN §7.2, Layout: slabs must be 128-aligned)", i, a, a%128)
		}
		e.addWaiter(0, rec)
	}
	blocks := 0
	for b, left := e.waiters.tail[0].next, e.waiters.len(0); left > 0; b, left = b.next, left-waitBlockRecs {
		if a := uintptr(unsafe.Pointer(b)); a%128 != 0 {
			t.Fatalf("waiter block %d at %#x is %d bytes past a 128-byte boundary (DESIGN §7.2, Layout: slabs must be 128-aligned)", blocks, a, a%128)
		}
		blocks++
	}
	if blocks <= slabMin || e.recSlab < 4*slabMin {
		t.Fatalf("drew %d waiter blocks and grew record slabs to %d: want blocks from two slabs and records from four", blocks, e.recSlab)
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

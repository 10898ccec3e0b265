package engine

import (
	"runtime"
	"testing"

	"mobiledist/internal/sim"
)

// FuzzChanTable drives a ChanTable with a byte-chosen sequence of At calls
// against a map model. The first two bytes pick a small (M, N); every later
// byte picks a channel, whose entry must hold what the model says (zero on
// first use — through hot-slot promotions, overflow growth and row
// allocation alike) and is then overwritten with a fresh value. At the end
// Each must visit every touched id exactly once, in ascending order, and
// nothing else that is not zero.
func FuzzChanTable(f *testing.F) {
	// M=3, N=4: wired 0..8, downlink (mss, mh) = 9 + mss*4 + mh, uplinks 21..24.
	f.Add([]byte{2, 3, 9, 13, 17, 9, 13, 17, 9, 13, 17}) // mh0 served by three cells in rotation
	f.Add([]byte{2, 3, 4, 4, 0, 8})                      // wired self-loops (1,1), (0,0), (2,2)
	f.Add([]byte{2, 3, 24, 24, 21})                      // last uplink, then the first
	f.Add([]byte{0, 0, 0, 1, 2, 1, 0})                   // M=N=1: one channel of each kind

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		l := ChannelLayout{M: 1 + int(data[0])%4, N: 1 + int(data[1])%5}
		tab := NewChanTable[int](l)
		model := make(map[int]int)
		for step, b := range data[2:] {
			ch := int(b) % l.Count()
			v := tab.At(ch)
			if *v != model[ch] {
				t.Fatalf("step %d, layout %+v: At(%d) = %d, model has %d", step, l, ch, *v, model[ch])
			}
			*v = step + 1
			model[ch] = step + 1
		}
		last, seen := -1, 0
		tab.Each(func(ch int, v *int) {
			if ch <= last {
				t.Fatalf("Each visited ch%d after ch%d: not strictly ascending", ch, last)
			}
			last = ch
			if *v != model[ch] {
				t.Fatalf("Each(%d) = %d, model has %d", ch, *v, model[ch])
			}
			if _, touched := model[ch]; touched {
				seen++
			}
		})
		if seen != len(model) {
			t.Fatalf("Each visited %d of the %d touched channels", seen, len(model))
		}
	})
}

// TestChanTableWarmAtAllocFree: a lookup of an entry that exists allocates
// nothing, in any block — including the downlink lookup that swaps an
// overflow entry into the hot slot.
func TestChanTableWarmAtAllocFree(t *testing.T) {
	l := ChannelLayout{M: 3, N: 4}
	tab := NewChanTable[sim.Time](l)
	warm := []int{4, 9, 13, 17, 24} // wired (1,1); mh0's downlinks from all three cells; last uplink
	for _, ch := range warm {
		*tab.At(ch) = sim.Time(ch)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, ch := range warm {
			if *tab.At(ch) != sim.Time(ch) {
				t.Fatalf("At(%d) lost its value", ch)
			}
		}
	}); allocs != 0 {
		t.Errorf("At on warm entries: %v allocs per run, want 0", allocs)
	}
}

// TestNewChanTableAllocatesLinear: construction is O(M+N). At M=N=40000 the
// numbering has 3.2e9 ids; one flat 8-byte block for the wired pairs alone
// would be 12.8 GB.
func TestNewChanTableAllocatesLinear(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := NewChanTable[sim.Time](ChannelLayout{M: 40000, N: 40000})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("NewChanTable(M=N=40000) allocated %d bytes, want < 8 MB", got)
	}
	last := ChannelLayout{M: 40000, N: 40000}.Count() - 1
	if *tab.At(last) != 0 {
		t.Error("last uplink is not zero on first use")
	}
}

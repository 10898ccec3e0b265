package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is a small shared VM whose speed drifts by
// tens of percent over minutes as its neighbours come and go: a pure pointer
// chase was seen to take 63 ms and, ten minutes later, 88 ms, and over the
// same minutes sim-route fell from 326k to 245k msgs/s and rt-route from
// 160k to 115k with nothing changed but the clock on the wall. More work
// per run cannot average out a regime that lasts longer than a run. So the
// benchmark measures the drift with a fixed reference computation of its
// own, between every two timed slices while the program is quiescent, and
// reports times divided by the resulting host factor: "what this would
// have taken on the quiet box". The raw numbers are printed beside them.
// Over forty minutes of 2 s slices the factor explained the larger part of
// the variation of every CPU-bound number (log-log slope 0.9 to 1.1, see
// README.md); the wait-bound ones (tcp-idle's latency and throughput) do
// not follow it and are reported raw.
type hostProbe struct {
	perm []uint32
	at   uint32
}

const (
	// hostArrayBytes is the size of the chased array: far beyond the
	// private cache levels, so the chase runs at the speed of what the VM
	// shares with its neighbours.
	hostArrayBytes = 32 << 20
	hostChaseSteps = 400_000
	// nominalChaseNS is one chase step on this box when its neighbours are
	// quiet (2-vCPU Xeon @ 2.1 GHz guest): the factor's unit. Another box
	// shifts every factor by the same ratio, which cancels between commits.
	nominalChaseNS = 105.0
)

// hostRef returns the process's one host probe.
var hostRef = sync.OnceValues(newHostProbe)

// newHostProbe builds one random cycle through the array (Sattolo's
// shuffle), so every step is a dependent load the prefetcher cannot guess.
// The array is mapped outside the Go heap: inside it, 32 MB of live data
// would double the heap the collector lets the measured program grow to,
// and would be counted into mem_mb.
func newHostProbe() (*hostProbe, error) {
	n := hostArrayBytes / 4
	mem, err := syscall.Mmap(-1, 0, hostArrayBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference: mapping %d MB: %w", hostArrayBytes>>20, err)
	}
	perm := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	p := &hostProbe{perm: perm}
	p.factor() // first touch of the chase path
	return p, nil
}

// factor chases hostChaseSteps loads and returns how much slower than
// nominal they ran (1 = the quiet box).
func (p *hostProbe) factor() float64 {
	at := p.at
	t0 := time.Now()
	for i := 0; i < hostChaseSteps; i++ {
		at = p.perm[at]
	}
	ns := float64(time.Since(t0).Nanoseconds())
	p.at = at
	return ns / hostChaseSteps / nominalChaseNS
}

// cpuTime returns the process's CPU time (user+sys) from the process CPU
// clock. getrusage's times are sampled at the scheduler tick, which on a
// mostly idle process (tcp-idle) is noise of tens of percent.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

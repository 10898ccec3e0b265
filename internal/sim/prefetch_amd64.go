package sim

// prefetch hints the cache line at addr into every cache level
// (PREFETCHT0). It never faults, whatever addr is.
func prefetch(addr uintptr)

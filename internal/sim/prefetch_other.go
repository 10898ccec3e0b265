//go:build !amd64

package sim

// prefetch is a no-op off amd64: the lookahead is a hint, never a
// correctness matter.
func prefetch(addr uintptr) {}

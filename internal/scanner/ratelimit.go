package scanner

import "sync/atomic"

// rateLimiter implements the paper's ethical probe-rate cap (10k pps) on a
// virtual clock: instead of sleeping, it advances simulated time by one
// inter-packet gap per Take. Experiments therefore run at full speed while
// VirtualElapsed reports how long the scan would take on real hardware —
// the figure EXPERIMENTS.md quotes when comparing against the paper's
// two-month scanning window.
//
// The clock is a single atomic packet counter multiplied by the fixed gap,
// so Take and TakeN are lock-free: eight workers taking concurrently never
// serialize on a mutex, they only contend on one cache line for the
// duration of an atomic add.
type rateLimiter struct {
	gap float64      // seconds per packet
	n   atomic.Int64 // packets accounted so far
}

// newRateLimiter caps at pps packets per second.
func newRateLimiter(pps int) *rateLimiter {
	if pps <= 0 {
		pps = 1
	}
	return &rateLimiter{gap: 1 / float64(pps)}
}

// TakeN accounts for n packets at once — the batched hot path's amortized
// Take — and returns the virtual send time of the first of them.
func (r *rateLimiter) TakeN(n int) float64 {
	return float64(r.n.Add(int64(n))-int64(n)) * r.gap
}

// Gap returns the inter-packet gap in seconds (1/pps).
func (r *rateLimiter) Gap() float64 { return r.gap }

// VirtualElapsed returns the total virtual seconds consumed so far.
func (r *rateLimiter) VirtualElapsed() float64 {
	return float64(r.n.Load()) * r.gap
}

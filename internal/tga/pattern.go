package tga

import (
	"math"
	"math/bits"

	"seedscan/internal/ipaddr"
)

// ValueMask is a 16-bit set of hex values observed or allowed at one
// nybble position.
type ValueMask = uint16

// ObservedMasks returns, per nybble position, the set of values seen in
// the seeds — the raw material of every pattern miner.
func ObservedMasks(seeds []ipaddr.Addr) [ipaddr.NybbleCount]ValueMask {
	var m [ipaddr.NybbleCount]ValueMask
	for _, a := range seeds {
		for i := 0; i < ipaddr.NybbleCount; i++ {
			m[i] |= 1 << a.Nybble(i)
		}
	}
	return m
}

// ValueCounts tallies value frequencies per position.
func ValueCounts(seeds []ipaddr.Addr) [ipaddr.NybbleCount][16]int {
	var c [ipaddr.NybbleCount][16]int
	for _, a := range seeds {
		for i := 0; i < ipaddr.NybbleCount; i++ {
			c[i][a.Nybble(i)]++
		}
	}
	return c
}

// PositionEntropy returns the Shannon entropy (bits) of the value
// distribution at each position — Entropy/IP's segmentation signal and
// DET's splitting heuristic.
func PositionEntropy(seeds []ipaddr.Addr) [ipaddr.NybbleCount]float64 {
	counts := ValueCounts(seeds)
	var h [ipaddr.NybbleCount]float64
	for i := range counts {
		h[i] = entropy(&counts[i], len(seeds))
	}
	return h
}

// entropy is the Shannon entropy (bits) of one position's value tally over
// n seeds.
func entropy(counts *[16]int, n int) float64 {
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// maskEnum enumerates the cartesian product of per-position value masks in
// odometer order (least significant position varies fastest, values
// ascending), which is ascending address order. It is a value with no
// pointers: the zero maskEnum yields nothing, and a position with an empty
// mask makes the whole product empty.
type maskEnum struct {
	masks [ipaddr.NybbleCount]ValueMask
	cur   ipaddr.Addr // last address returned, advanced in place
	state enumState
}

type enumState uint8

const (
	enumFresh enumState = iota // nothing returned yet
	enumRunning
	enumDone
)

// next returns the next address, or false when exhausted.
func (e *maskEnum) next() (ipaddr.Addr, bool) {
	switch e.state {
	case enumDone:
		return ipaddr.Addr{}, false
	case enumFresh:
		for i, m := range e.masks {
			if m == 0 {
				e.state = enumDone
				return ipaddr.Addr{}, false
			}
			e.cur = e.cur.WithNybble(i, byte(bits.TrailingZeros16(m)))
		}
		e.state = enumRunning
		return e.cur, true
	}
	// Odometer increment from position 31 down: step to the next allowed
	// value above the current one, or wrap to the lowest and carry.
	for i := ipaddr.NybbleCount - 1; i >= 0; i-- {
		m := e.masks[i]
		v := e.cur.Nybble(i)
		if above := m &^ (1<<(v+1) - 1); above != 0 {
			e.cur = e.cur.WithNybble(i, byte(bits.TrailingZeros16(above)))
			return e.cur, true
		}
		e.cur = e.cur.WithNybble(i, byte(bits.TrailingZeros16(m)))
	}
	e.state = enumDone
	return ipaddr.Addr{}, false
}

// LeafGen generates addresses for one pattern region: first the cartesian
// product of observed values, then progressive widening — adding one
// adjacent value at a time to the most promising positions, enumerating
// exactly the new combinations each widening unlocks. It never emits the
// same address twice.
type LeafGen struct {
	masks [ipaddr.NybbleCount]ValueMask // current allowed values
	job   maskEnum                      // the enumeration under way
	// widen state
	widenPos []int // positions in widening preference order; nil means the default, derived at the first widen
	nextW    int
}

// NewLeafGen builds a generator from per-position observed masks.
// widenOrder lists the positions allowed to widen, most preferred first;
// nil allows IID positions 31..16 that were variable, then fixed IID
// positions, a sensible default for tree leaves.
func NewLeafGen(masks [ipaddr.NybbleCount]ValueMask, widenOrder []int) *LeafGen {
	return &LeafGen{masks: masks, job: maskEnum{masks: masks}, widenPos: widenOrder}
}

// defaultWidenOrder lists the variable IID positions (least significant
// first), then the fixed IID positions. The result is never nil.
func defaultWidenOrder(masks *[ipaddr.NybbleCount]ValueMask) []int {
	order := make([]int, 0, ipaddr.NybbleCount-16)
	for i := ipaddr.NybbleCount - 1; i >= 16; i-- {
		if bits.OnesCount16(masks[i]) > 1 {
			order = append(order, i)
		}
	}
	for i := ipaddr.NybbleCount - 1; i >= 16; i-- {
		if bits.OnesCount16(masks[i]) == 1 {
			order = append(order, i)
		}
	}
	return order
}

// Next returns the next fresh candidate, or false when the region cannot
// produce more (fully widened and enumerated).
func (g *LeafGen) Next() (ipaddr.Addr, bool) {
	for {
		if a, ok := g.job.next(); ok {
			return a, true
		}
		if !g.widen() {
			return ipaddr.Addr{}, false
		}
	}
}

// widen adds one new value to one position and starts the job enumerating
// the newly unlocked combinations. It is only reached once the job under
// way is exhausted. Returns false when nothing is left to widen.
func (g *LeafGen) widen() bool {
	if g.widenPos == nil {
		// Nothing has widened yet, so the masks are still the observed ones
		// the default order is defined on.
		g.widenPos = defaultWidenOrder(&g.masks)
	}
	for tries := 0; tries < len(g.widenPos)*16+1; tries++ {
		if len(g.widenPos) == 0 {
			return false
		}
		pos := g.widenPos[g.nextW%len(g.widenPos)]
		g.nextW++
		v, ok := nearestUnset(g.masks[pos])
		if !ok {
			continue
		}
		g.masks[pos] |= 1 << v
		g.job = maskEnum{masks: g.masks}
		g.job.masks[pos] = 1 << v
		return true
	}
	return false
}

// nearestUnset returns the unset value closest to the set ones (pattern
// neighbourhoods first).
func nearestUnset(m ValueMask) (byte, bool) {
	if m == 0xffff {
		return 0, false
	}
	if m == 0 {
		return 0, true
	}
	for dist := 1; dist < 16; dist++ {
		for v := 0; v < 16; v++ {
			if m&(1<<v) == 0 {
				continue
			}
			if nv := v + dist; nv < 16 && m&(1<<nv) == 0 {
				return byte(nv), true
			}
			if nv := v - dist; nv >= 0 && m&(1<<nv) == 0 {
				return byte(nv), true
			}
		}
	}
	return 0, false
}

// MaskSize returns the number of combinations of a mask array (capped to
// avoid overflow; 2^63-1 max).
func MaskSize(masks [ipaddr.NybbleCount]ValueMask) float64 {
	s := 1.0
	for _, m := range masks {
		n := bits.OnesCount16(m)
		if n == 0 {
			return 0
		}
		s *= float64(n)
		if s > math.MaxFloat64/16 {
			return math.MaxFloat64
		}
	}
	return s
}

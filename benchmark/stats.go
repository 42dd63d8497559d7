package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(sorted(xs), 0.5)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of an ascending slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// resolved is the reporting rule for latency tails: a percentile is
// reported only when n samples leave at least ten beyond it (with a hair
// of slack for 1-p not being exact in binary).
func resolved(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-6
}

// percentileIfResolved returns the p-quantile only when the rule allows
// p to be reported for this sample count, otherwise 0.
func percentileIfResolved(asc []float64, p float64) float64 {
	if !resolved(len(asc), p) {
		return 0
	}
	return quantile(asc, p)
}

// Package metrics implements the paper's evaluation metrics (§4.1): hits
// (dealiased active addresses), active ASes (network diversity), alias
// counts, the Performance Ratio used throughout RQ1-RQ2, pairwise overlap
// matrices (Figures 1-2), and the greedy cumulative-contribution ordering
// of Figure 6.
package metrics

import (
	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
)

// Outcome summarizes one TGA run under the paper's metrics.
type Outcome struct {
	Hits    int // dealiased active addresses
	ASes    int // distinct ASes among hits
	Aliases int // active addresses discarded as aliased
}

// Measure computes an Outcome from a run's hits and aliased hits.
// excludeASN drops hits originated by that AS before counting — the
// paper's AS12322 filter for ICMP evaluation (pass 0 to keep everything).
func Measure(hits, aliased []ipaddr.Addr, db *asdb.DB, excludeASN int) Outcome {
	kept := ExcludeAS(hits, db, excludeASN)
	return Outcome{
		Hits:    len(kept),
		ASes:    len(db.ASSet(kept)),
		Aliases: len(aliased),
	}
}

// ExcludeAS returns addrs without those originated by asn, in order; an
// asn of 0 returns addrs itself. It is Measure's filter, for tables that
// count a union of runs' hits rather than one run's.
func ExcludeAS(addrs []ipaddr.Addr, db *asdb.DB, asn int) []ipaddr.Addr {
	if asn == 0 {
		return addrs
	}
	kept := make([]ipaddr.Addr, 0, len(addrs))
	for _, a := range addrs {
		if got, ok := db.Lookup(a); ok && got == asn {
			continue
		}
		kept = append(kept, a)
	}
	return kept
}

// PerformanceRatio is §4.1's comparison metric between a changed and an
// original treatment: (changed-original)/original. 0 means no change, 1.0
// a doubling, -1.0 a halving. A zero original with a nonzero changed value
// saturates to +1 per unit of change (the paper never hits this case; we
// guard it for tiny scaled runs).
func PerformanceRatio(changed, original float64) float64 {
	if original == 0 {
		if changed == 0 {
			return 0
		}
		return changed // saturating: interpret as "changed× from nothing"
	}
	return (changed - original) / original
}

// Contribution is one step of the greedy coverage ordering: the named set
// adds New previously-unseen items, bringing the cumulative total to
// Total.
type Contribution struct {
	Name  string
	New   int
	Total int
}

// GreedyCover orders the named sets by marginal contribution: at each
// step the set adding the most unseen items is chosen (Figure 6's
// construction). Ties break lexicographically for determinism.
func GreedyCover[K comparable](sets map[string]map[K]struct{}) []Contribution {
	covered := make(map[K]struct{})
	remaining := make(map[string]map[K]struct{}, len(sets))
	for n, s := range sets {
		remaining[n] = s
	}
	var out []Contribution
	for len(remaining) > 0 {
		bestName, bestNew := "", -1
		for n, s := range remaining {
			novel := 0
			for k := range s {
				if _, ok := covered[k]; !ok {
					novel++
				}
			}
			if novel > bestNew || (novel == bestNew && n < bestName) {
				bestName, bestNew = n, novel
			}
		}
		for k := range remaining[bestName] {
			covered[k] = struct{}{}
		}
		delete(remaining, bestName)
		out = append(out, Contribution{Name: bestName, New: bestNew, Total: len(covered)})
	}
	return out
}

// NamedSets builds the two families of named sets GreedyCover and
// Overlaps take from named address lists: names[i]'s addresses, and the
// ASes originating them.
func NamedSets(names []string, addrs [][]ipaddr.Addr, db *asdb.DB) (ips map[string]map[ipaddr.Addr]struct{}, ases map[string]map[int]struct{}) {
	ips = make(map[string]map[ipaddr.Addr]struct{}, len(names))
	ases = make(map[string]map[int]struct{}, len(names))
	for i, n := range names {
		set := make(map[ipaddr.Addr]struct{}, len(addrs[i]))
		for _, a := range addrs[i] {
			set[a] = struct{}{}
		}
		ips[n] = set
		ases[n] = db.ASSet(addrs[i])
	}
	return ips, ases
}

// OverlapMatrix holds Figures 1-2's pairwise overlap percentages:
// Frac[i][j] is the fraction of set i's items also present in set j, and
// AnyOther[i] is the fraction of set i present in at least one other set.
type OverlapMatrix struct {
	Names    []string
	Frac     [][]float64
	AnyOther []float64
}

// Overlaps builds an OverlapMatrix over named item sets, in the given name
// order.
func Overlaps[K comparable](names []string, sets map[string]map[K]struct{}) OverlapMatrix {
	m := OverlapMatrix{
		Names:    names,
		Frac:     make([][]float64, len(names)),
		AnyOther: make([]float64, len(names)),
	}
	for i, ni := range names {
		m.Frac[i] = make([]float64, len(names))
		si := sets[ni]
		if len(si) == 0 {
			continue
		}
		anyCount := 0
		for k := range si {
			inOther := false
			for j, nj := range names {
				if i == j {
					continue
				}
				if _, ok := sets[nj][k]; ok {
					inOther = true
					m.Frac[i][j]++
				}
			}
			if inOther {
				anyCount++
			}
		}
		for j := range m.Frac[i] {
			m.Frac[i][j] /= float64(len(si))
		}
		m.Frac[i][i] = 1
		m.AnyOther[i] = float64(anyCount) / float64(len(si))
	}
	return m
}

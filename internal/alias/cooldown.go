// Cool-down dealiasing (ModeCooldown): a non-saturating alternative to
// the online 6Gen test. The online mode 3-probes every new /96 up front,
// which is exhaustive but spends probesPerPrefix probes on every prefix a
// scan touches. The cool-down detector instead watches response density
// while results stream through Split: observations are accumulated per
// aggregation prefix (/64), and only when a prefix's density crosses
// cooldownTrigger — it is answering suspiciously often — are its /96s put
// through the standard probe confirmation. A confirmed-aliased /96 is
// "cooled down": every address in it, past and future, is discarded. A
// confirmed-clean /96 is whitelisted forever in the shared verdict cache.
//
// Reputation shortcuts the density ramp: the known-alias list's prefixes,
// plus candidate prefixes derived from the list's structure (siblings of
// nybble-groups the list already names), are suspicious on first sight.
//
// On inputs with no aliased addresses every confirmation comes back
// clean, so the partition is exactly ModeOnline's — the detector only
// changes how many probes that answer costs.
package alias

import (
	"math/bits"

	"seedscan/internal/ipaddr"
)

// cooldownAggrBits is the aggregation grain for density tracking. Aliased
// regions usually span many /96s, so counting per /96 would never
// accumulate; /64 — the conventional end-site boundary — is where a
// pattern of "everything answers" becomes visible.
const cooldownAggrBits = 64

// cooldownTrigger is the per-/64 observation count at which the detector
// confirms the aggregate's /96s. Below it prefixes stay untested (and
// their addresses kept), which is what makes the detector cheap on the
// sparse, genuinely-clean bulk of a scan.
const cooldownTrigger = 4

// maxCandidatePrefixes caps structural candidate generation so a
// pathological known-alias list cannot blow up the suspicion list.
const maxCandidatePrefixes = 4096

// splitCooldown is Split under ModeCooldown, with v the addresses'
// verdicts, all kept. Three phases: account densities, confirm the
// suspicious /96s with the shared probe test, then mark and partition by
// the /96 claim table exactly like the online mode.
func (d *Dealiaser) splitCooldown(addrs []ipaddr.Addr, v []verdict) (clean, aliased []ipaddr.Addr) {
	// Phase 1 (under mu): bump per-/64 densities for the whole batch,
	// then mark the addresses in hot aggregates or candidate-listed
	// prefixes, whose /96s are listed at their count.
	d.mu.Lock()
	for _, a := range addrs {
		d.density[ipaddr.PrefixFrom(a, cooldownAggrBits)]++
	}
	nHot := 0
	for i, a := range addrs {
		if d.density[ipaddr.PrefixFrom(a, cooldownAggrBits)] >= d.trigger ||
			(d.candidates != nil && d.candidates.Contains(a)) {
			v[i] = hot
			nHot++
		}
	}
	d.mu.Unlock()

	// Phase 2: the standard probesPerPrefix confirmation, shared with the
	// online mode (singleflight claims, verdict cache, deterministic probe
	// addresses), so concurrent Splits confirm each /96 once.
	var stack [smallSplit]ipaddr.Prefix
	claimed := d.confirm(prefixesOf(stack[:0], addrs, v, hot, nHot))

	// Phase 3: mark at /96. Untested prefixes have no verdict and default
	// clean; confirmed-aliased ones are cooled down.
	d.mu.Lock()
	newlyCooled := 0
	for _, p := range claimed {
		if d.claims[p] == isAliased {
			newlyCooled++
		}
	}
	nTested := d.mark(addrs, v)
	d.mu.Unlock()
	d.cCooled.Add(int64(newlyCooled))
	return partition(addrs, v, 0, nTested)
}

// candidateList builds the suspicion list: the structural candidates
// derived from the known-alias list, plus that list itself. Nil when
// there is no list to learn from.
func candidateList(offline *OfflineList) *OfflineList {
	if offline == nil || offline.Len() == 0 {
		return nil
	}
	known := offline.Prefixes()
	return NewOfflineList(append(generateCandidatePrefixes(known, maxCandidatePrefixes), known...))
}

// generateCandidatePrefixes derives candidate alias prefixes from the
// structure of known ones. Operators allocate aliased prefixes in runs:
// when a known-alias list names two or more siblings of a nybble group
// (prefixes identical except in their final nybble), the unnamed sibling
// values are likely aliased too, just never observed. Those siblings are
// returned, deterministically ordered by the list, capped at max.
func generateCandidatePrefixes(known []ipaddr.Prefix, max int) []ipaddr.Prefix {
	type group struct {
		parent ipaddr.Prefix
		seen   uint16 // bitmask of final-nybble values named by the list
	}
	listed := make(map[ipaddr.Prefix]bool, len(known))
	for _, p := range known {
		listed[p] = true
	}
	idx := make(map[ipaddr.Prefix]int)
	var groups []group
	for _, p := range known {
		b := p.Bits()
		if b < 4 || b%4 != 0 {
			continue // candidate mining works on whole-nybble prefixes
		}
		last := b/4 - 1
		parent := ipaddr.PrefixFrom(p.Addr().WithNybble(last, 0), b)
		i, ok := idx[parent]
		if !ok {
			i = len(groups)
			idx[parent] = i
			groups = append(groups, group{parent: parent})
		}
		groups[i].seen |= 1 << p.Addr().Nybble(last)
	}
	var out []ipaddr.Prefix
	for _, g := range groups {
		if bits.OnesCount16(g.seen) < 2 {
			continue // one sibling is no pattern
		}
		last := g.parent.Bits()/4 - 1
		for v := byte(0); v < 16; v++ {
			if g.seen&(1<<v) != 0 {
				continue
			}
			cand := ipaddr.PrefixFrom(g.parent.Addr().WithNybble(last, v), g.parent.Bits())
			if listed[cand] {
				continue
			}
			out = append(out, cand)
			if len(out) == max {
				return out
			}
		}
	}
	return out
}

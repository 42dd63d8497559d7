// Package world implements the synthetic IPv6 Internet the study scans.
//
// The live Internet is replaced by a deterministic model: autonomous
// systems announce prefixes, prefixes contain regions (routers, ISP
// customer blocks, web farms, CDN nodes, DNS farms, aliased slabs), and a
// region decides — as a pure function of the world seed and the address —
// whether any given address exists, which of ICMP/TCP80/TCP443/UDP53 it
// listens on, whether it churns away, is born, or flaps as the epoch clock
// advances, and how its network answers probes (SYN-ACKs, RSTs,
// unreachables, rate-limited silence).
//
// Because every decision is a hash of (seed, address, tag), the world
// answers membership queries over the 2^128 space in O(prefix-depth) with
// no enumeration, scans are reproducible, and the structure TGAs exploit in
// the wild — hierarchical pattern locality, per-port service skew, aliases
// clustered near dense patterns — is present by construction.
//
// The world is also lazy: New allocates nothing but a slot table, and each
// AS's regions materialize on first contact from a per-AS deterministic
// seed. That keeps the build cost flat while Config.sizeScale and
// Config.NumASes grow the expected host population to 10^8 and beyond.
package world

import (
	"sync"
	"sync/atomic"

	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// Epochs: seeds are collected at CollectEpoch; experiments scan at
// ScanEpoch. Churn and birth happen in between. The clock does not stop
// there: every later epoch applies another round of churn and birth (plus
// transient flap downtime), so a longitudinal service can advance the
// world indefinitely with SetEpoch(e) for any e >= 0. Epochs 0 and 1
// behave exactly as the original two-epoch model.
const (
	CollectEpoch = 0
	ScanEpoch    = 1
)

// flapFraction scales a region's Churn rate into its per-epoch transient
// downtime rate: at epochs >= 2, a surviving host is down for exactly that
// epoch with probability Churn*flapFraction (dynamic-prefix renumbering,
// maintenance windows). Flaps are what distinguish a volatile host from a
// dead one — the signal longitudinal trackers estimate.
const flapFraction = 0.5

// World is the simulated Internet. Safe for concurrent use; the mutable
// state is the current epoch plus the lazily-materialized region groups,
// which build deterministically (concurrent builders of the same group
// produce identical groups; one wins the publish).
type World struct {
	seed     uint64
	cfg      Config // defaults filled
	lossRate float64
	epoch    atomic.Int32
	// tagged holds Mix64(seed, tag) per tag, the prefix every decision
	// hash continues from (see hash).
	tagged [tagCount]uint64

	// groups holds one lazily-built region group per AS: slots 0..NumASes-1
	// are the normal ASes, slot NumASes is the pathological AS12322
	// analogue.
	groups []atomic.Pointer[regionGroup]

	asdbOnce sync.Once
	asdbVal  *asdb.DB

	allOnce sync.Once
	allVal  []*Region

	tele atomic.Pointer[worldTele]
}

// regionGroup is one AS's materialized slice of the world: its registry
// header, its regions, and a flat LPM table routing addresses under the
// AS's /28 to a region index.
type regionGroup struct {
	header  asHeader
	regions []*Region
	lpm     *ipaddr.LPMTable
}

// ASDB returns the AS registry backing the world, built lazily from the
// per-AS headers (no region materialization).
func (w *World) ASDB() *asdb.DB {
	w.asdbOnce.Do(func() {
		ases := make([]*asdb.AS, 0, w.cfg.NumASes+1)
		for i := 0; i <= w.cfg.NumASes; i++ {
			h := w.headerOf(i)
			ases = append(ases, &asdb.AS{Number: h.asn, Name: h.name, Type: h.org, Prefixes: h.prefixes})
		}
		w.asdbVal = asdb.New(ases...)
	})
	return w.asdbVal
}

// Regions returns all regions, materializing any group not yet built. The
// returned slice is a fresh copy — callers may reorder it freely, but must
// not mutate the regions themselves.
func (w *World) Regions() []*Region {
	all := w.materializeAll()
	out := make([]*Region, len(all))
	copy(out, all)
	return out
}

// materializeAll builds every region group once and caches the combined
// list in canonical order (AS 0..N-1, then the pathological AS).
func (w *World) materializeAll() []*Region {
	w.allOnce.Do(func() {
		n := 0
		groups := make([]*regionGroup, len(w.groups))
		for i := range w.groups {
			groups[i] = w.group(i)
			n += len(groups[i].regions)
		}
		all := make([]*Region, 0, n)
		for _, g := range groups {
			all = append(all, g.regions...)
		}
		w.allVal = all
	})
	return w.allVal
}

// Seed returns the world seed.
func (w *World) Seed() uint64 { return w.seed }

// SetEpoch switches the world clock: CollectEpoch while gathering seeds,
// ScanEpoch while running experiments.
func (w *World) SetEpoch(e int) { w.epoch.Store(int32(e)) }

// Epoch returns the current epoch.
func (w *World) Epoch() int { return int(w.epoch.Load()) }

// spineIndex maps an address to the group slot owning its /28, or -1 for
// unrouted space. AS i's /28 base is asBase(i), so the spine is pure
// arithmetic — no trie walk decides which AS a packet belongs to.
func (w *World) spineIndex(a ipaddr.Addr) int {
	i := int64(a.Hi()>>36) - 0x2000000 - 1
	if i >= 0 && i < int64(w.cfg.NumASes) {
		return int(i)
	}
	if i == int64(w.cfg.NumASes+8) {
		return w.cfg.NumASes // the pathological AS's slot
	}
	return -1
}

// group returns slot i's region group, building it on first use. Builds
// are deterministic, so a lost publish race costs only the duplicate work.
func (w *World) group(i int) *regionGroup {
	if g := w.groups[i].Load(); g != nil {
		return g
	}
	g := w.buildGroup(i)
	if w.groups[i].CompareAndSwap(nil, g) {
		if t := w.tele.Load(); t != nil {
			t.groupsMat.Inc()
		}
		return g
	}
	return w.groups[i].Load()
}

// RegionOf returns the deepest region containing a: an arithmetic spine
// hop to the owning AS, then one flat LPM lookup within it.
func (w *World) RegionOf(a ipaddr.Addr) (*Region, bool) {
	i := w.spineIndex(a)
	if i < 0 {
		return nil, false
	}
	g := w.group(i)
	v, ok := g.lpm.Lookup(a)
	if !ok {
		return nil, false
	}
	return g.regions[v], true
}

// existsAt reports whether address a inside region r is an existing host at
// the given epoch, applying density, per-epoch churn and birth cohorts,
// and (from epoch 2 on) transient flap downtime.
//
// The model: the existence hash u places every in-template address on a
// one-dimensional density axis. Addresses with u < Density form cohort 0,
// alive at the collection epoch. The band [Density·(1+(t-1)·Birth),
// Density·(1+t·Birth)) is cohort t: born at epoch t, so each epoch
// transition births a fresh disjoint slice of the axis. A cohort-t host
// observed at epoch e > t has survived e-t transitions, each independently
// at rate Churn — geometric survival, evaluated in one draw against the
// memoized cumulative death probability deathBy(e-t) instead of one draw
// per transition. Deaths are permanent (deathBy is monotone in age, the
// draw is fixed per address). On top of that, a living host may flap: at
// epochs >= 2 it is down for exactly one epoch with probability
// Churn·flapFraction, independently per epoch. At epochs 0 and 1 all of
// this reduces to the original two-epoch model, hash for hash (deathBy(1)
// is exactly Churn, against the original epoch-free churn hash).
func (w *World) existsAt(a ipaddr.Addr, r *Region, epoch int) bool {
	if r.Aliased {
		return true
	}
	if !r.match.matches(a) {
		return false
	}
	u := unit(w.hash(tagExists, a.Hi(), a.Lo()))
	if epoch <= CollectEpoch {
		return u < r.density
	}
	born := 0
	if u >= r.density {
		// Not in cohort 0: find the birth cohort, if it is born by now.
		if r.density <= 0 || r.birth <= 0 ||
			u >= r.density*(1+float64(epoch)*r.birth) {
			return false
		}
		born = 1 + int((u-r.density)/(r.density*r.birth))
		if born > epoch {
			born = epoch // float-edge guard; the band check above bounds it
		}
	}
	if epoch > born && unit(w.churnHash(a)) < r.deathBy(epoch-born) {
		return false
	}
	if epoch >= 2 && r.churn > 0 &&
		unit(w.hash(tagFlap, a.Hi(), a.Lo(), uint64(epoch))) < r.churn*flapFraction {
		return false
	}
	return true
}

// churnHash is the per-address death draw, compared against the cumulative
// death probability for the host's age. It is the original epoch-free
// churn hash, so the first transition stays byte-identical to the
// two-epoch experiments.
func (w *World) churnHash(a ipaddr.Addr) uint64 {
	return w.hash(tagChurn, a.Hi(), a.Lo())
}

// ExistsAt reports whether a is an existing host at the given epoch.
func (w *World) ExistsAt(a ipaddr.Addr, epoch int) bool {
	r, ok := w.RegionOf(a)
	if !ok {
		return false
	}
	return w.existsAt(a, r, epoch)
}

// ActiveOn reports whether a answers probes on p at the given epoch. This
// is the ground truth the scanner observes (modulo loss and rate limits).
func (w *World) ActiveOn(a ipaddr.Addr, p proto.Protocol, epoch int) bool {
	r, ok := w.RegionOf(a)
	if !ok {
		return false
	}
	return w.listens(a, r, p, w.existsAt(a, r, epoch))
}

// listens reports whether a inside r answers on p, given exists, what
// existsAt said of a at the epoch in question. Callers that need both
// facts draw the existence hash once.
func (w *World) listens(a ipaddr.Addr, r *Region, p proto.Protocol, exists bool) bool {
	if r.Aliased {
		return r.resp[p] > 0.5
	}
	return exists && unit(w.hash(tagProto, a.Hi(), a.Lo(), uint64(p))) < r.resp[p]
}

// ActiveOnAny reports whether a answers on at least one studied protocol.
func (w *World) ActiveOnAny(a ipaddr.Addr, epoch int) bool {
	r, ok := w.RegionOf(a)
	if !ok {
		return false
	}
	if r.Aliased {
		return true
	}
	if !w.existsAt(a, r, epoch) {
		return false
	}
	for _, p := range proto.All {
		if unit(w.hash(tagProto, a.Hi(), a.Lo(), uint64(p))) < r.resp[p] {
			return true
		}
	}
	return false
}

// IsAliased reports whether a falls inside an aliased region — the ground
// truth dealiasers try to recover.
func (w *World) IsAliased(a ipaddr.Addr) bool {
	r, ok := w.RegionOf(a)
	return ok && r.Aliased
}

// AliasedPrefixes returns the ground-truth aliased prefixes. The offline
// alias list (internal/alias) is built from a subset of these, modelling
// the IPv6 Hitlist's incomplete published list.
func (w *World) AliasedPrefixes() []ipaddr.Prefix {
	var out []ipaddr.Prefix
	for _, r := range w.materializeAll() {
		if r.Aliased {
			out = append(out, r.Prefix)
		}
	}
	return out
}

// ASNOf returns the AS number originating a. Pure spine arithmetic plus
// the group header — it never consults the full registry.
func (w *World) ASNOf(a ipaddr.Addr) (int, bool) {
	i := w.spineIndex(a)
	if i < 0 {
		return 0, false
	}
	slot := int(a.Hi()>>32) & 0xf
	h := w.headerOf(i)
	if slot >= len(h.prefixes) {
		return 0, false // inside the AS's /28 but no /32 announced there
	}
	return h.asn, true
}

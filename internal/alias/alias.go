// Package alias implements the paper's two dealiasing approaches (§2.2,
// §4.2) and their combination:
//
//   - Offline: filtering against a published list of known aliased
//     prefixes (the IPv6 Hitlist's list). The list is incomplete, so
//     offline filtering alone misses never-before-seen aliases.
//   - Online: the 6Gen method. For every new /96 prefix observed among
//     active addresses, probe 3 random addresses inside it (with retries);
//     if 2 or more answer, the whole /96 is an alias and every address in
//     it is discarded.
//   - Joint: offline first (free), then online for the rest — the
//     configuration the paper recommends.
//   - Cooldown: a non-saturating detector beyond the paper's pair (see
//     cooldown.go). Instead of 3-probing every new /96 up front, it
//     tracks per-prefix response density during scanning and only
//     confirms prefixes that answer suspiciously often, cooling them
//     down (discarding further addresses) once confirmed aliased.
package alias

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// AliasPrefixBits is the prefix granularity of the online test. The paper
// keeps 6Gen's /96 (4 billion addresses per prefix).
const AliasPrefixBits = 96

// Online-test parameters from §4.2: 3 random addresses, aliased when 2+
// answer.
const (
	probesPerPrefix = 3
	aliasThreshold  = 2
)

// Mode selects a dealiasing treatment; the RQ1.a experiment sweeps all
// of them.
type Mode uint8

const (
	ModeNone Mode = iota
	ModeOffline
	ModeOnline
	ModeJoint
	ModeCooldown
)

// String names the mode using the paper's D_* notation.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeOffline:
		return "offline"
	case ModeOnline:
		return "online"
	case ModeJoint:
		return "joint"
	case ModeCooldown:
		return "cooldown"
	}
	return "mode?"
}

// Modes lists all treatments in Table 4 order: the paper's four, then
// the cool-down extension.
var Modes = []Mode{ModeNone, ModeOffline, ModeOnline, ModeJoint, ModeCooldown}

// ParseMode resolves a treatment name as printed by Mode.String.
func ParseMode(name string) (Mode, error) {
	for _, m := range Modes {
		if m.String() == name {
			return m, nil
		}
	}
	return ModeNone, fmt.Errorf("alias: unknown dealias mode %q", name)
}

// OfflineList is a static set of known aliased prefixes.
type OfflineList struct {
	table    *ipaddr.LPMTable
	prefixes []ipaddr.Prefix
}

// NewOfflineList builds a list from known aliased prefixes.
func NewOfflineList(prefixes []ipaddr.Prefix) *OfflineList {
	return &OfflineList{table: ipaddr.BuildLPM(prefixes, nil, 0), prefixes: slices.Clone(prefixes)}
}

// Len returns the number of listed prefixes.
func (l *OfflineList) Len() int { return len(l.prefixes) }

// Prefixes returns the listed prefixes (read-only) — the structural input
// for cool-down candidate generation.
func (l *OfflineList) Prefixes() []ipaddr.Prefix { return l.prefixes }

// Contains reports whether a falls in a listed aliased prefix.
func (l *OfflineList) Contains(a ipaddr.Addr) bool {
	_, ok := l.table.Lookup(a)
	return ok
}

// Dealiaser splits address lists into clean and aliased parts under a
// given mode. The zero value is unusable; construct with New.
type Dealiaser struct {
	mode    Mode
	offline *OfflineList
	prober  scanner.Prober
	proto   proto.Protocol

	mu sync.Mutex
	// claims is the online test's table of /96s: a tested one maps to
	// isClean or isAliased, one being tested to the done-channel of the
	// call testing it (one channel per claiming call, closed when its
	// verdicts land), an unseen one to nothing. Claiming a prefix here
	// under mu is what guarantees each /96 is tested exactly once even
	// when concurrent Split calls observe it as unknown simultaneously.
	claims  map[ipaddr.Prefix]chan struct{}
	probes  int
	tested  int
	rngSeed uint64

	// Cool-down state (ModeCooldown only): per-/96 observation counts,
	// the density at which a prefix is confirmed, and the candidate
	// prefixes (known aliases plus structural siblings) that are
	// confirmed on first sight. See cooldown.go.
	density    map[ipaddr.Prefix]int
	trigger    int
	candidates *OfflineList

	// Telemetry counters, set by New and never written again; all
	// nil-safe, so an unwired Dealiaser pays only a no-op method call.
	cCacheHit   *telemetry.Counter
	cCacheMiss  *telemetry.Counter
	cTested     *telemetry.Counter
	cProbesSent *telemetry.Counter
	cCooled     *telemetry.Counter
}

// New builds a Dealiaser. offline may be nil for ModeNone/ModeOnline;
// prober may be nil for ModeNone/ModeOffline. reg receives the alias.*
// counters (nil: off).
func New(mode Mode, offline *OfflineList, prober scanner.Prober, p proto.Protocol, seed uint64, reg *telemetry.Registry) *Dealiaser {
	d := &Dealiaser{
		mode:        mode,
		offline:     offline,
		prober:      prober,
		proto:       p,
		rngSeed:     seed,
		cCacheHit:   reg.Counter("alias.verdict_cache.hits"),
		cCacheMiss:  reg.Counter("alias.verdict_cache.misses"),
		cTested:     reg.Counter("alias.prefixes_tested"),
		cProbesSent: reg.Counter("alias.probes_sent"),
		cCooled:     reg.Counter("alias.cooldown.cooled"),
	}
	if mode == ModeCooldown {
		d.density = make(map[ipaddr.Prefix]int)
		d.trigger = cooldownTrigger
		d.candidates = candidateList(offline)
	}
	return d
}

// ProbesSent reports how many dealiasing probe targets have been issued.
func (d *Dealiaser) ProbesSent() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.probes
}

// PrefixesTested reports how many /96s went through the online test.
func (d *Dealiaser) PrefixesTested() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tested
}

// isClean and isAliased are the claim table's verdicts: channels no
// call closes or waits on.
var isClean, isAliased = make(chan struct{}), make(chan struct{})

// smallSplit is how many addresses a Split classifies on its stack —
// their verdicts and the /96s it tests — so that a batch whose verdicts
// are all cached allocates nothing. It is the experiments' TGA batch
// size, which bounds the active addresses the driver splits: every driver
// call of a repro_icmp pass fits, where 256 entries fit 49 % of them and
// 512 fit 89 %. A longer input, such as a seed set, gets one verdict
// slice and one /96 list, each of the length it needs.
const smallSplit = 1024

// verdict is what one Split call makes of one input address, in the
// order its aliased partition lists them: kept, then on the offline list,
// then in a /96 that tested aliased. hot marks, under ModeCooldown, an
// address whose /96 is to be confirmed.
type verdict uint8

const (
	kept verdict = iota
	listed
	tested
	hot
)

// Split separates addrs into clean (kept) and aliased (discarded)
// according to the mode, partitioning in place: clean is written over the
// front of addrs, so the input is overwritten, and aliased is allocated
// only when it is non-empty, at its final length. Online testing batches
// all unknown /96s into one scan. Both partitions preserve the input
// order (offline-listed aliases first under ModeJoint), so a run's hit
// list is reproducible.
func (d *Dealiaser) Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	if d.mode == ModeNone || len(addrs) == 0 {
		return addrs, nil
	}
	var stack [smallSplit]verdict
	v := stack[:]
	if len(addrs) > len(stack) {
		v = make([]verdict, len(addrs))
	}
	v = v[:len(addrs)]
	if d.mode == ModeCooldown {
		return d.splitCooldown(addrs, v)
	}

	nListed := 0
	if (d.mode == ModeOffline || d.mode == ModeJoint) && d.offline != nil {
		for i, a := range addrs {
			if d.offline.Contains(a) {
				v[i] = listed
				nListed++
			}
		}
	}
	if d.mode == ModeOffline {
		return partition(addrs, v, nListed, 0)
	}

	// Online: test the /96s of the unlisted addresses no verdict covers
	// yet, then mark the addresses in the ones that tested aliased.
	var stackP [smallSplit]ipaddr.Prefix
	d.confirm(prefixesOf(stackP[:0], addrs, v, kept, len(addrs)-nListed))
	d.mu.Lock()
	nTested := d.mark(addrs, v)
	d.mu.Unlock()
	return partition(addrs, v, nListed, nTested)
}

// prefixesOf lists, canonically ordered and distinct, the /96s of the n
// addresses of addrs whose verdict is want, turning each such verdict to
// kept: in buf's storage when n fits its capacity, else in a slice of
// capacity n.
func prefixesOf(buf []ipaddr.Prefix, addrs []ipaddr.Addr, v []verdict, want verdict, n int) []ipaddr.Prefix {
	prefixes := buf[:0]
	if n > cap(buf) {
		prefixes = make([]ipaddr.Prefix, 0, n)
	}
	for i, a := range addrs {
		if v[i] == want {
			prefixes = append(prefixes, ipaddr.PrefixFrom(a, AliasPrefixBits))
			v[i] = kept
		}
	}
	return distinctPrefixes(prefixes)
}

// mark gives every kept address of addrs whose /96 tested aliased the
// verdict tested and returns how many it marked. The caller holds mu.
func (d *Dealiaser) mark(addrs []ipaddr.Addr, v []verdict) int {
	n := 0
	for i, a := range addrs {
		if v[i] == kept && d.claims[ipaddr.PrefixFrom(a, AliasPrefixBits)] == isAliased {
			v[i] = tested
			n++
		}
	}
	return n
}

// partition moves the kept addresses of addrs to its front, in input
// order, and returns them with the rest in one slice of exactly their
// number: the nListed offline-listed addresses, then the nTested in /96s
// that tested aliased, each in input order. v holds addrs' verdicts.
func partition(addrs []ipaddr.Addr, v []verdict, nListed, nTested int) (clean, aliased []ipaddr.Addr) {
	if nListed+nTested == 0 {
		return addrs, nil
	}
	aliased = make([]ipaddr.Addr, nListed+nTested)
	clean = addrs[:0]
	l, t := 0, nListed
	for i, a := range addrs {
		switch v[i] {
		case kept:
			clean = append(clean, a)
		case listed:
			aliased[l] = a
			l++
		default:
			aliased[t] = a
			t++
		}
	}
	return clean, aliased
}

// confirm online-tests the prefixes (canonically ordered, distinct)
// that have no verdict yet and returns the ones this call tested. A
// prefix another call is already testing is waited for instead, so each
// /96 is tested exactly once across concurrent calls; every verdict is
// cached when confirm returns.
func (d *Dealiaser) confirm(prefixes []ipaddr.Prefix) (claimed []ipaddr.Prefix) {
	claimed, done, waits := d.claimUnknown(prefixes)
	if len(claimed) > 0 {
		d.testPrefixes(claimed, done)
	}
	for _, ch := range waits {
		<-ch
	}
	return claimed
}

// claimUnknown partitions prefixes under the mutex: those with no
// verdict and no in-flight test are claimed for this caller, in order and
// in prefixes' own storage, and marked in flight under one done-channel;
// those another call is already testing come back as its channels to
// wait on. Cached or in-flight-elsewhere prefixes count as cache hits —
// only a claim is a miss. An empty table is sized for the claim.
func (d *Dealiaser) claimUnknown(prefixes []ipaddr.Prefix) (claimed []ipaddr.Prefix, done chan struct{}, waits []chan struct{}) {
	n := len(prefixes)
	claimed = prefixes[:0]
	d.mu.Lock()
	if len(d.claims) == 0 && n > 0 {
		d.claims = make(map[ipaddr.Prefix]chan struct{}, n)
	}
	for _, p := range prefixes {
		if ch, ok := d.claims[p]; ok {
			if ch != isClean && ch != isAliased && (len(waits) == 0 || waits[len(waits)-1] != ch) {
				waits = append(waits, ch)
			}
			continue
		}
		if done == nil {
			done = make(chan struct{})
		}
		d.claims[p] = done
		claimed = append(claimed, p)
	}
	d.mu.Unlock()
	d.cCacheMiss.Add(int64(len(claimed)))
	d.cCacheHit.Add(int64(n - len(claimed)))
	return claimed, done, waits
}

// comparePrefixes orders prefixes canonically (address, then length) so
// probe generation is reproducible.
func comparePrefixes(a, b ipaddr.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// distinctPrefixes sorts ps canonically and drops repeats, in place.
func distinctPrefixes(ps []ipaddr.Prefix) []ipaddr.Prefix {
	slices.SortFunc(ps, comparePrefixes)
	return slices.Compact(ps)
}

// probeHostBits derives the deterministic "random" host bits for probe k
// of a prefix. A package variable so tests can force address collisions.
var probeHostBits = func(seed uint64, p ipaddr.Prefix, salt uint64) uint64 {
	return ipaddr.Mix64(seed, p.Addr().Hi(), p.Addr().Lo(), salt)
}

// testPrefixes probes probesPerPrefix random addresses in each claimed
// prefix (canonically ordered, distinct), records the verdicts and
// releases the claims by closing done. Every prefix gets exactly
// probesPerPrefix distinct probe addresses: when a generated address
// collides with one of the prefix's earlier probes the salt is re-rolled
// until unique, so no prefix is silently judged on fewer probes than the
// aliasThreshold assumes. Probes of different /96s cannot collide.
func (d *Dealiaser) testPrefixes(prefixes []ipaddr.Prefix, done chan struct{}) {
	targets := make([]ipaddr.Addr, 0, len(prefixes)*probesPerPrefix)
	for _, p := range prefixes {
		own := len(targets)
		for k := 0; k < probesPerPrefix; k++ {
			salt := uint64(k)
			a := p.Overlay(ipaddr.AddrFrom64s(0, probeHostBits(d.rngSeed, p, salt)))
			for slices.Contains(targets[own:], a) {
				salt += probesPerPrefix
				a = p.Overlay(ipaddr.AddrFrom64s(0, probeHostBits(d.rngSeed, p, salt)))
			}
			targets = append(targets, a)
		}
	}

	// A reply counts for a prefix only if it is one of the prefix's own
	// targets, which sit at targets[i*probesPerPrefix:][:probesPerPrefix].
	// Counting stops at aliasThreshold, so a prober that repeats replies
	// cannot wrap the uint8.
	active := make([]uint8, len(prefixes))
	if d.prober != nil {
		for _, a := range d.prober.ScanActive(targets, d.proto) {
			i, ok := slices.BinarySearchFunc(prefixes, ipaddr.PrefixFrom(a, AliasPrefixBits), comparePrefixes)
			if ok && active[i] < aliasThreshold && slices.Contains(targets[i*probesPerPrefix:][:probesPerPrefix], a) {
				active[i]++
			}
		}
	}

	d.mu.Lock()
	d.probes += len(targets)
	d.tested += len(prefixes)
	for i, p := range prefixes {
		d.claims[p] = isClean
		if active[i] >= aliasThreshold {
			d.claims[p] = isAliased
		}
	}
	close(done)
	d.mu.Unlock()
	d.cProbesSent.Add(int64(len(targets)))
	d.cTested.Add(int64(len(prefixes)))
}

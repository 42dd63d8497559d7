package alias

import (
	"fmt"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// countingProber records every ScanActive call so tests can assert how
// many online probes were actually issued. A configurable activeFn decides
// which targets answer.
type countingProber struct {
	mu       sync.Mutex
	calls    int
	targets  []ipaddr.Addr
	activeFn func(ipaddr.Addr) bool
}

func (p *countingProber) ScanActive(targets []ipaddr.Addr, _ proto.Protocol) []ipaddr.Addr {
	p.mu.Lock()
	p.calls++
	p.targets = append(p.targets, targets...)
	p.mu.Unlock()
	var out []ipaddr.Addr
	for _, a := range targets {
		if p.activeFn(a) {
			out = append(out, a)
		}
	}
	return out
}

// Scan completes the shared scanner.Prober surface; the dealiaser scans
// only through ScanActive, so this path stays uncounted.
func (p *countingProber) Scan(targets []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	out := make([]scanner.Result, len(targets))
	for i, a := range targets {
		st := scanner.StatusSilent
		if p.activeFn(a) {
			st = scanner.StatusActive
		}
		out[i] = scanner.Result{Addr: a, Proto: pr, Status: st, Attempts: 1}
	}
	return out
}

// TestConcurrentSplitTestsEachPrefixOnce is the regression test for the
// Split TOCTOU race: two concurrent Split calls could both observe the
// same /96 as unknown, both probe it, and double-count tested/probes and
// the alias.* counters. With singleflight claiming, every /96 must be
// online-tested exactly once no matter how many goroutines race. Run
// under -race.
func TestConcurrentSplitTestsEachPrefixOnce(t *testing.T) {
	const prefixes = 16
	base := ipaddr.MustParse("2001:db8:aaaa::")
	var addrs []ipaddr.Addr
	for i := 0; i < prefixes; i++ {
		// Two addresses per /96, all in distinct /96s (bits 64..96 vary).
		p := base.AddLo(uint64(i) << 32)
		addrs = append(addrs, p, p.AddLo(1))
	}

	// Every /96 answers all probes: all prefixes come back aliased.
	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return true }}
	reg := telemetry.NewRegistry()
	d := New(ModeOnline, nil, prober, proto.ICMP, 9, reg)

	const goroutines = 8
	var wg sync.WaitGroup
	aliasedCounts := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clean, aliased := d.Split(addrs)
			aliasedCounts[g] = len(aliased)
			if len(clean)+len(aliased) != len(addrs) {
				t.Errorf("goroutine %d: partition lost addresses: %d+%d != %d",
					g, len(clean), len(aliased), len(addrs))
			}
		}(g)
	}
	wg.Wait()

	for g, n := range aliasedCounts {
		if n != len(addrs) {
			t.Errorf("goroutine %d: aliased = %d, want %d", g, n, len(addrs))
		}
	}
	if got := d.PrefixesTested(); got != prefixes {
		t.Errorf("PrefixesTested = %d, want %d (each /96 exactly once)", got, prefixes)
	}
	if got := d.ProbesSent(); got != prefixes*probesPerPrefix {
		t.Errorf("ProbesSent = %d, want %d", got, prefixes*probesPerPrefix)
	}
	prober.mu.Lock()
	probed := len(prober.targets)
	prober.mu.Unlock()
	if probed != prefixes*probesPerPrefix {
		t.Errorf("prober saw %d targets, want %d", probed, prefixes*probesPerPrefix)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["alias.prefixes_tested"]; got != prefixes {
		t.Errorf("alias.prefixes_tested = %d, want %d", got, prefixes)
	}
	if got := snap.Counters["alias.probes_sent"]; got != int64(prefixes*probesPerPrefix) {
		t.Errorf("alias.probes_sent = %d, want %d", got, prefixes*probesPerPrefix)
	}
	hits := snap.Counters["alias.verdict_cache.hits"]
	misses := snap.Counters["alias.verdict_cache.misses"]
	if misses != prefixes {
		t.Errorf("cache misses = %d, want %d (one claim per prefix)", misses, prefixes)
	}
	if hits+misses != int64(goroutines*prefixes) {
		t.Errorf("hits+misses = %d, want %d", hits+misses, goroutines*prefixes)
	}
}

// TestConcurrentCooldownSplits races concurrent cool-down Splits over a
// shared dealiaser: every suspicious /96 must be confirmed exactly once
// (the cool-down path shares the singleflight claims), and each call's
// partition must stay lossless. Run under -race.
func TestConcurrentCooldownSplits(t *testing.T) {
	// 8 addresses per /64 so every aggregate crosses cooldownTrigger, in
	// distinct /96s so each needs its own confirmation.
	var addrs []ipaddr.Addr
	const aggs, per = 8, 8
	for i := 0; i < aggs; i++ {
		agg := ipaddr.MustParse(fmt.Sprintf("2001:db8:dddd:%x::", i))
		for k := 0; k < per; k++ {
			addrs = append(addrs, agg.AddLo(uint64(k)<<32))
		}
	}

	prober := &countingProber{activeFn: func(ipaddr.Addr) bool { return true }}
	reg := telemetry.NewRegistry()
	d := New(ModeCooldown, nil, prober, proto.ICMP, 23, reg)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clean, aliased := d.Split(addrs)
			if len(clean)+len(aliased) != len(addrs) {
				t.Error("partition lost addresses")
			}
		}()
	}
	wg.Wait()

	want := aggs * per // distinct /96s, all dense enough to confirm
	if got := d.PrefixesTested(); got != want {
		t.Errorf("PrefixesTested = %d, want %d (each /96 exactly once)", got, want)
	}
	if got := d.ProbesSent(); got != want*probesPerPrefix {
		t.Errorf("ProbesSent = %d, want %d", got, want*probesPerPrefix)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["alias.cooldown.cooled"]; got != int64(want) {
		t.Errorf("alias.cooldown.cooled = %d, want %d", got, want)
	}
}

// TestTestPrefixesRerollsDuplicateProbes is the regression test for the
// silent under-probing bug: when two generated probe addresses collided,
// the old code skipped the duplicate and judged the /96 on fewer than
// probesPerPrefix probes against an unchanged aliasThreshold. The salt
// must be re-rolled until the address is unique.
func TestTestPrefixesRerollsDuplicateProbes(t *testing.T) {
	orig := probeHostBits
	defer func() { probeHostBits = orig }()
	// Force the first probesPerPrefix salts to collide on the same host
	// bits; re-rolled salts (k + probesPerPrefix, ...) produce unique ones.
	probeHostBits = func(seed uint64, p ipaddr.Prefix, salt uint64) uint64 {
		if salt < probesPerPrefix {
			return 0x1234
		}
		return 0x1_0000 + salt
	}

	// The prefix answers exactly aliasThreshold of its distinct probes
	// (the colliding address plus the first re-rolled one, salt 1+3=4):
	// only full probing can reach the threshold.
	answered := map[uint64]bool{0x1234: true, 0x1_0004: true}
	prober := &countingProber{activeFn: func(a ipaddr.Addr) bool { return answered[a.Lo()&0xffffffff] }}
	d := New(ModeOnline, nil, prober, proto.ICMP, 5, nil)

	addr := ipaddr.MustParse("2001:db8:bbbb::1")
	if !d.isAliased(addr) {
		t.Fatal("prefix meeting AliasThreshold not flagged aliased (under-probed?)")
	}
	if got := d.ProbesSent(); got != probesPerPrefix {
		t.Fatalf("ProbesSent = %d, want %d distinct probes", got, probesPerPrefix)
	}
	prober.mu.Lock()
	defer prober.mu.Unlock()
	seen := make(map[ipaddr.Addr]bool)
	for _, a := range prober.targets {
		if seen[a] {
			t.Fatalf("duplicate probe target %v issued", a)
		}
		seen[a] = true
	}
	if len(seen) != probesPerPrefix {
		t.Fatalf("%d distinct targets probed, want %d", len(seen), probesPerPrefix)
	}
}

// strayProber answers like countingProber and also reports addresses it
// was never asked about.
type strayProber struct {
	countingProber
	stray []ipaddr.Addr
}

func (p *strayProber) ScanActive(targets []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	return append(p.countingProber.ScanActive(targets, pr), p.stray...)
}

// TestTestPrefixesCountsOnlyItsTargets: a reply counts toward a prefix's
// verdict only if it is one of that prefix's own probe targets. An
// unasked address inside the /96 must not tip a prefix that answered 1 of
// probesPerPrefix over aliasThreshold.
func TestTestPrefixesCountsOnlyItsTargets(t *testing.T) {
	orig := probeHostBits
	defer func() { probeHostBits = orig }()
	probeHostBits = func(seed uint64, p ipaddr.Prefix, salt uint64) uint64 { return 0x100 + salt }

	p := ipaddr.MustParsePrefix("2001:db8:eeee::/96")
	prober := &strayProber{
		countingProber: countingProber{activeFn: func(a ipaddr.Addr) bool { return a.Lo()&0xffffffff == 0x100 }},
		stray:          []ipaddr.Addr{p.Addr().AddLo(0x999)},
	}
	d := New(ModeOnline, nil, prober, proto.ICMP, 5, nil)
	if d.isAliased(p.Addr().AddLo(1)) {
		t.Fatal("an unasked reply tipped a 1-of-3 prefix to aliased")
	}
	if got := d.ProbesSent(); got != probesPerPrefix {
		t.Fatalf("ProbesSent = %d, want %d", got, probesPerPrefix)
	}
}

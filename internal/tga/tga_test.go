package tga

import (
	"context"
	"slices"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

func seedsFrom(ss ...string) []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(ss))
	for i, s := range ss {
		out[i] = ipaddr.MustParse(s)
	}
	return out
}

func TestObservedMasks(t *testing.T) {
	seeds := seedsFrom("2001:db8::1", "2001:db8::2")
	m := observedMasks(seeds)
	if m[31] != 1<<1|1<<2 {
		t.Fatalf("mask[31] = %x", m[31])
	}
	if m[0] != 1<<2 {
		t.Fatalf("mask[0] = %x", m[0])
	}
}

func TestPositionEntropy(t *testing.T) {
	seeds := seedsFrom("2001:db8::1", "2001:db8::2", "2001:db8::3", "2001:db8::4")
	h := PositionEntropy(seeds)
	if h[0] != 0 {
		t.Fatalf("fixed position entropy = %v", h[0])
	}
	if h[31] != 2 { // four equiprobable values
		t.Fatalf("h[31] = %v, want 2", h[31])
	}
	var empty [0]ipaddr.Addr
	_ = empty
	if got := PositionEntropy(nil); got[0] != 0 {
		t.Fatal("entropy of empty seeds must be zero")
	}
}

func TestMaskEnumOdometer(t *testing.T) {
	e := maskEnum{masks: pinnedMasks(0)}
	e.masks[31] = 1<<1 | 1<<2
	e.masks[30] = 1<<0 | 1<<5
	var got []ipaddr.Addr
	for {
		a, ok := e.next()
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) != 4 {
		t.Fatalf("enumerated %d, want 4", len(got))
	}
	// Least significant varies fastest.
	if got[0] != ipaddr.MustParse("::1") || got[1] != ipaddr.MustParse("::2") ||
		got[2] != ipaddr.MustParse("::51") || got[3] != ipaddr.MustParse("::52") {
		t.Fatalf("order wrong: %v", got)
	}
	if _, ok := e.next(); ok {
		t.Fatal("enumerated past the end")
	}
}

func TestLeafGenNoDuplicatesAndWidens(t *testing.T) {
	seeds := seedsFrom("2001:db8::11", "2001:db8::12", "2001:db8::21")
	masks := observedMasks(seeds)
	g := newLeafGen(masks, nil)
	seen := ipaddr.NewSet()
	n := 0
	for n < 500 {
		a, ok := g.Next()
		if !ok {
			break
		}
		if !seen.Add(a) {
			t.Fatalf("duplicate %v after %d", a, n)
		}
		n++
	}
	// Initial product is 2x2=4; widening must carry it well beyond.
	if n < 100 {
		t.Fatalf("generated only %d", n)
	}
}

func TestLeafGenExhaustsFullyWidenedSpace(t *testing.T) {
	// Fix everything except position 31: space is at most 16.
	var masks [ipaddr.NybbleCount]ValueMask
	for i := range masks {
		masks[i] = 1 << 0
	}
	masks[31] = 1 << 5
	g := newLeafGen(masks, []int{31})
	count := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		count++
		if count > 16 {
			t.Fatal("generated more than the space allows")
		}
	}
	if count != 16 {
		t.Fatalf("generated %d, want 16", count)
	}
}

func TestMineTreeShape(t *testing.T) {
	seeds := seedsFrom(
		"2001:db8:a::1", "2001:db8:a::2", "2001:db8:a::3",
		"2001:db8:b::1", "2001:db8:b::2",
	)
	leaves := mustMine(t, seeds, 1, SplitLeftmost).LeafModels
	if len(leaves) < 2 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	total := 0
	for _, l := range leaves {
		total += len(l.Seeds)
	}
	if total != len(seeds) {
		t.Fatalf("leaves cover %d seeds, want %d", total, len(seeds))
	}
}

func TestSplitHeuristics(t *testing.T) {
	seeds := seedsFrom("2001:db8:a::1", "2001:db8:b::2", "2001:db8:a::3")
	if got := SplitLeftmost(seeds, 1<<11|1<<31); got != 11 {
		t.Fatalf("leftmost = %d", got)
	}
	if got := SplitLeftmost(seeds, 0); got != -1 {
		t.Fatal("leftmost on no candidates should be -1")
	}
	// Position 11 has 2 values {a,b} with seed counts 2/1 → entropy ~0.918;
	// position 31 has 3 values → entropy ~1.585. Min-entropy picks 11.
	if got := SplitMinEntropy(seeds, 1<<11|1<<31); got != 11 {
		t.Fatalf("min-entropy = %d", got)
	}
}

// staticGen is a trivial generator for driver tests.
type staticGen struct {
	addrs []ipaddr.Addr
	i     int
	fb    int
}

func (g *staticGen) Name() string                   { return "static" }
func (g *staticGen) Online() bool                   { return true }
func (g *staticGen) Init(seeds []ipaddr.Addr) error { return nil }
func (g *staticGen) Feedback(rs []ProbeResult)      { g.fb += len(rs) }
func (g *staticGen) NextBatch(n int) []ipaddr.Addr {
	if g.i >= len(g.addrs) {
		return nil
	}
	end := g.i + n
	if end > len(g.addrs) {
		end = len(g.addrs)
	}
	out := g.addrs[g.i:end]
	g.i = end
	return out
}

// nullProber marks everything silent.
type nullProber struct{ calls int }

func (p *nullProber) Scan(ts []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	p.calls++
	out := make([]scanner.Result, len(ts))
	for i, a := range ts {
		out[i] = scanner.Result{Addr: a, Proto: pr}
	}
	return out
}

// ScanActive completes the shared scanner.Prober surface; the driver
// tests exercise only Scan.
func (p *nullProber) ScanActive(ts []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr { return nil }

func TestRunBudgetAndDedup(t *testing.T) {
	var addrs []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 100; i++ {
		addrs = append(addrs, base.AddLo(uint64(i%50))) // 50 unique, repeated
	}
	g := &staticGen{addrs: addrs}
	pr := &nullProber{}
	res, err := Run(g, nil, RunConfig{Budget: 40, BatchSize: 16, Prober: pr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 40 {
		t.Fatalf("generated = %d", res.Generated)
	}
	if g.fb == 0 {
		t.Fatal("online generator got no feedback")
	}
}

func TestRunExhaustion(t *testing.T) {
	g := &staticGen{addrs: seedsFrom("::1", "::2")}
	res, err := Run(g, nil, RunConfig{Budget: 100, Prober: &nullProber{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Generated != 2 {
		t.Fatalf("exhausted=%v generated=%d", res.Exhausted, res.Generated)
	}
}

func TestRunExcludesSeeds(t *testing.T) {
	seeds := seedsFrom("::1", "::2")
	g := &staticGen{addrs: seedsFrom("::1", "::2", "::3")}
	res, err := Run(g, seeds, RunConfig{Budget: 10, Prober: &nullProber{}, ExcludeSeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 1 {
		t.Fatalf("generated = %d, want 1 (seeds excluded)", res.Generated)
	}
}

// TestRunRejectsBadBudget: a budget outside [1, ipaddr.MaxSetLen] is an
// error before anything is built, not a panic sizing the candidate set.
func TestRunRejectsBadBudget(t *testing.T) {
	for _, budget := range []int{0, -1, ipaddr.MaxSetLen + 1} {
		if _, err := Run(&staticGen{}, nil, RunConfig{Budget: budget}); err == nil {
			t.Fatalf("budget %d accepted", budget)
		}
	}
}

// dupPrefixGen is a stateless generator that always returns the first n
// candidates of a fixed enumeration whose head contains duplicates — the
// shape that starves tiny NextBatch requests (a 1-seed leaf's first
// enumeration is the seed itself). Each batch is a copy: the caller owns
// it.
type dupPrefixGen struct{ seq []ipaddr.Addr }

func (g *dupPrefixGen) Name() string                   { return "dupprefix" }
func (g *dupPrefixGen) Online() bool                   { return false }
func (g *dupPrefixGen) Init(seeds []ipaddr.Addr) error { return nil }
func (g *dupPrefixGen) Feedback([]ProbeResult)         {}
func (g *dupPrefixGen) NextBatch(n int) []ipaddr.Addr {
	if n > len(g.seq) {
		n = len(g.seq)
	}
	return slices.Clone(g.seq[:n])
}

// TestGenerateFullBatchAvoidsStarvation is the regression test for
// Generate's tiny-request starvation: requesting budget-out.Len() made the
// final rounds ask for 1-2 candidates, which a duplicate-heavy generator
// answers with already-seen addresses forever — Generate falsely reported
// exhaustion one short of the budget. Like RunContext, it must request
// full batches and discard extras.
func TestGenerateFullBatchAvoidsStarvation(t *testing.T) {
	// Enumeration head repeats the first address; 6 unique total.
	seq := seedsFrom("::1", "::1", "::2", "::3", "::4", "::5", "::6")
	got, err := Generate(&dupPrefixGen{seq: seq}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("generated %d of budget 5 (starved on duplicate head)", len(got))
	}
	seen := make(map[ipaddr.Addr]bool)
	for _, a := range got {
		if seen[a] {
			t.Fatalf("duplicate %v in output", a)
		}
		seen[a] = true
	}
}

// TestGenerateStopsAtBudget pins the discard-extras side of the fix: a
// full-batch request must not push the output past the budget.
func TestGenerateStopsAtBudget(t *testing.T) {
	var seq []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 500; i++ {
		seq = append(seq, base.AddLo(uint64(i)))
	}
	got, err := Generate(&dupPrefixGen{seq: seq}, nil, 123)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 123 {
		t.Fatalf("generated %d, want exactly the 123 budget", len(got))
	}
}

// TestProberlessRunReturnsCandidates: a run without a prober has nothing
// to report but what it generated, so its result lists the candidates —
// exactly Generate's list — while a scanned run's does not.
func TestProberlessRunReturnsCandidates(t *testing.T) {
	var seq []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 300; i++ {
		seq = append(seq, base.AddLo(uint64(i%200))) // 200 unique, repeated
	}
	want, err := Generate(&dupPrefixGen{seq: seq}, nil, 150)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), &dupPrefixGen{seq: seq}, nil, RunConfig{Budget: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 150 || !slices.Equal(res.Candidates, want) {
		t.Fatalf("prober-less run listed %d candidates, Generate %d, or in another order", len(res.Candidates), len(want))
	}
	scanned, err := Run(&dupPrefixGen{seq: seq}, nil, RunConfig{Budget: 150, Prober: &nullProber{}})
	if err != nil {
		t.Fatal(err)
	}
	if scanned.Candidates != nil {
		t.Fatalf("scanned run listed %d candidates", len(scanned.Candidates))
	}
}

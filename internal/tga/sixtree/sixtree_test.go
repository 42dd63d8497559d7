package sixtree

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

func seedsFrom(ss ...string) []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(ss))
	for i, s := range ss {
		out[i] = ipaddr.MustParse(s)
	}
	return out
}

func TestInitRejectsEmpty(t *testing.T) {
	if err := New().Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestMetadata(t *testing.T) {
	g := New()
	if g.Name() != "6Tree" || g.Online() {
		t.Fatal("metadata wrong")
	}
}

func TestTreeSplitsPerPrefix(t *testing.T) {
	g := New()
	err := g.Init(seedsFrom(
		"2001:db8:a::1", "2001:db8:a::2", "2001:db8:a::3", "2001:db8:a::4", "2001:db8:a::5",
		"2600:9000::1", "2600:9000::2", "2600:9000::3", "2600:9000::4", "2600:9000::5",
	))
	if err != nil {
		t.Fatal(err)
	}
	if g.leafCount() < 2 {
		t.Fatalf("leaves = %d, want per-prefix separation", g.leafCount())
	}
}

func TestGenerationStaysNearSeedsInitially(t *testing.T) {
	g := New()
	seeds := seedsFrom("2001:db8::11", "2001:db8::12", "2001:db8::13", "2001:db8::21", "2001:db8::22")
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	p32 := ipaddr.MustParsePrefix("2001:db8::/32")
	batch := g.NextBatch(50)
	if len(batch) == 0 {
		t.Fatal("no candidates")
	}
	for _, a := range batch {
		if !p32.Contains(a) {
			t.Fatalf("candidate %v escaped the seed /32", a)
		}
	}
}

func TestBatchesSpreadAcrossLeaves(t *testing.T) {
	// Many distinct /48s, one seed pair each: a batch must touch many.
	var seeds []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 64; i++ {
		s := base.WithNybble(9, byte(i%16)).WithNybble(10, byte(i/16))
		seeds = append(seeds, s.AddLo(1), s.AddLo(2))
	}
	g := New()
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	batch := g.NextBatch(640)
	prefixes := ipaddr.NewSet()
	for _, a := range batch {
		prefixes.Add(ipaddr.PrefixFrom(a, 44).Addr())
	}
	if prefixes.Len() < 32 {
		t.Fatalf("batch covered only %d distinct /44s", prefixes.Len())
	}
}

func TestFeedbackIsNoOp(t *testing.T) {
	g := New()
	if err := g.Init(seedsFrom("2001:db8::1", "2001:db8::2")); err != nil {
		t.Fatal(err)
	}
	before := g.NextBatch(10)
	g.Feedback([]tga.ProbeResult{{Addr: before[0], Active: true}})
	// No panic, no state corruption: generation continues.
	if len(g.NextBatch(10)) == 0 {
		t.Fatal("generation stopped after feedback")
	}
}

// leafCount reports the number of tree leaves (for diagnostics and tests).
func (g *Generator) leafCount() int { return g.leaves.Len() }

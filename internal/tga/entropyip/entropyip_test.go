package entropyip

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

func structuredSeeds() []ipaddr.Addr {
	// Fixed prefix, two variable tail nybbles, fixed "service" nybbles.
	var out []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8:0:1::1234:0")
	for i := 0; i < 60; i++ {
		out = append(out, base.AddLo(uint64(i)))
	}
	return out
}

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "EIP" || g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestSegmentation(t *testing.T) {
	g := New()
	if err := g.Init(structuredSeeds()); err != nil {
		t.Fatal(err)
	}
	if g.segmentCount() < 2 {
		t.Fatalf("segments = %d, want entropy-based split", g.segmentCount())
	}
}

func TestGenerationRespectsLowEntropySegments(t *testing.T) {
	g := New()
	seeds := structuredSeeds()
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	p := ipaddr.MustParsePrefix("2001:db8:0:1::/64")
	batch := g.NextBatch(100)
	if len(batch) == 0 {
		t.Fatal("no candidates")
	}
	for _, a := range batch {
		// The fixed prefix is a zero-entropy segment: candidates keep it.
		if !p.Contains(a) {
			t.Fatalf("candidate %v broke the fixed segment", a)
		}
	}
}

func TestNoDuplicates(t *testing.T) {
	g := New()
	if err := g.Init(structuredSeeds()); err != nil {
		t.Fatal(err)
	}
	seen := ipaddr.NewSet()
	for i := 0; i < 5; i++ {
		for _, a := range g.NextBatch(100) {
			if !seen.Add(a) {
				t.Fatalf("duplicate %v", a)
			}
		}
	}
}

func TestModelSaturates(t *testing.T) {
	// Two seeds → tiny model: generation must terminate, not spin.
	g := New()
	if err := g.Init([]ipaddr.Addr{
		ipaddr.MustParse("2001:db8::1"),
		ipaddr.MustParse("2001:db8::2"),
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 100; i++ {
		b := g.NextBatch(1000)
		if len(b) == 0 {
			break
		}
		total += len(b)
	}
	if total == 0 {
		t.Fatal("generated nothing")
	}
	if total > 100000 {
		t.Fatalf("tiny model generated %d — should saturate", total)
	}
}

func TestIndependentSegmentsCrossCombine(t *testing.T) {
	// Seeds where segment values correlate: (a...a), (b...b). EIP's
	// independence assumption must produce cross-combinations like
	// (a...b) — the very behaviour that tanks its hitrate in the paper.
	var seeds []ipaddr.Addr
	for i := 0; i < 30; i++ {
		seeds = append(seeds,
			ipaddr.MustParse("2001:db8::aa00").AddLo(uint64(i)),
			ipaddr.MustParse("2001:db8::bb40").AddLo(uint64(i)))
	}
	g := New()
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	seedSet := ipaddr.NewSet(seeds...)
	novel := 0
	for i := 0; i < 10; i++ {
		for _, a := range g.NextBatch(200) {
			if !seedSet.Contains(a) {
				novel++
			}
		}
	}
	if novel == 0 {
		t.Fatal("no novel cross-combinations generated")
	}
}

func TestFeedbackIgnored(t *testing.T) {
	g := New()
	if err := g.Init(structuredSeeds()); err != nil {
		t.Fatal(err)
	}
	g.Feedback([]tga.ProbeResult{{Active: true}})
	if len(g.NextBatch(10)) == 0 {
		t.Fatal("generation stopped after feedback")
	}
}

// segmentCount reports the number of mined segments (diagnostics).
func (g *Generator) segmentCount() int { return len(g.segments) }

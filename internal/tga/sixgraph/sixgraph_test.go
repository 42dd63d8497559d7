package sixgraph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "6Graph" || g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestPatternMergingWidensMasks(t *testing.T) {
	// Two leaf-sized groups in the same /48 whose patterns differ at a
	// single position: merging must union their masks.
	var seeds []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8:1:a::")
	b := ipaddr.MustParse("2001:db8:1:b::")
	for i := 1; i <= 5; i++ {
		seeds = append(seeds, a.AddLo(uint64(i)), b.AddLo(uint64(i)))
	}
	merged := New()
	if err := merged.Init(seeds); err != nil {
		t.Fatal(err)
	}
	unmerged := New()
	unmerged.mergeDist = -1 // sentinel: fixed below
	unmerged.mergeDist = 1  // too tight to merge across two positions? distance is 1 here
	_ = unmerged

	if merged.clusterCount() >= 2 {
		// Groups at distance 1 (only nybble 15 differs) must merge.
		t.Fatalf("clusters = %d, expected the two patterns to merge", merged.clusterCount())
	}
	if merged.clusterWidth() == 0 {
		t.Fatal("merged pattern has no variable positions")
	}
	// The merged pattern generates cross-products spanning both groups.
	got := ipaddr.NewSet()
	for i := 0; i < 5; i++ {
		got.AddAll(merged.NextBatch(100))
	}
	inA, inB := false, false
	p48a := ipaddr.MustParsePrefix("2001:db8:1:a::/64")
	p48b := ipaddr.MustParsePrefix("2001:db8:1:b::/64")
	got.Each(func(x ipaddr.Addr) {
		if p48a.Contains(x) {
			inA = true
		}
		if p48b.Contains(x) {
			inB = true
		}
	})
	if !inA || !inB {
		t.Fatalf("merged generation one-sided: a=%v b=%v", inA, inB)
	}
}

func TestDistantPatternsStaySeparate(t *testing.T) {
	var seeds []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8::")        // low IIDs
	b := ipaddr.MustParse("2600:9000::cafe:0") // different prefix + style
	for i := 1; i <= 5; i++ {
		seeds = append(seeds, a.AddLo(uint64(i)), b.AddLo(uint64(i)))
	}
	g := New()
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	if g.clusterCount() < 2 {
		t.Fatal("cross-prefix patterns merged")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	var seeds []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 50; i++ {
		seeds = append(seeds, base.AddLo(uint64(i*5%97)))
	}
	out := func() []ipaddr.Addr {
		g := New()
		if err := g.Init(seeds); err != nil {
			t.Fatal(err)
		}
		var got []ipaddr.Addr
		for i := 0; i < 3; i++ {
			got = append(got, g.NextBatch(100)...)
		}
		return got
	}
	a, b := out(), out()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// maskDistance is the reference join: positions where two mask arrays
// differ, compared one by one.
func maskDistance(a, b [ipaddr.NybbleCount]tga.ValueMask) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// TestPackedJoinMatchesMaskDistance pins the word-parallel join to the
// reference on same-bucket pairs: random masks, lanes that differ only in
// their lowest or only in their highest bit, and every position past the
// bucket key differing, at merge distances 0 through 4.
func TestPackedJoinMatchesMaskDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type pair struct {
		name string
		a, b [ipaddr.NybbleCount]tga.ValueMask
	}
	var pairs []pair
	for i := 0; i < 2000; i++ {
		var a [ipaddr.NybbleCount]tga.ValueMask
		for p := range a {
			a[p] = tga.ValueMask(rng.Intn(1 << 16))
		}
		b := a
		// Flip a few positions past the key, some to a one-bit change.
		for k := rng.Intn(7); k > 0; k-- {
			p := bucketPositions + rng.Intn(ipaddr.NybbleCount-bucketPositions)
			if rng.Intn(2) == 0 {
				b[p] ^= 1 << rng.Intn(16)
			} else {
				b[p] = tga.ValueMask(rng.Intn(1 << 16))
			}
		}
		pairs = append(pairs, pair{"random", a, b})
	}
	// n lanes differing only in bit 0 or only in bit 15, spread over the
	// words (5 is coprime to 24, so n = 24 is every non-bucket position).
	free := ipaddr.NybbleCount - bucketPositions
	for _, bit := range []uint{0, 15} {
		for n := 0; n <= free; n++ {
			var a, b [ipaddr.NybbleCount]tga.ValueMask
			for k := 0; k < n; k++ {
				p := bucketPositions + k*5%free
				a[p] = 0x0ff0
				b[p] = a[p] ^ 1<<bit
			}
			pairs = append(pairs, pair{fmt.Sprintf("bit %d in %d lanes", bit, n), a, b})
		}
	}

	for _, pr := range pairs {
		pa, pb := pack(&pr.a), pack(&pr.b)
		if [bucketWords]uint64(pa[:bucketWords]) != [bucketWords]uint64(pb[:bucketWords]) {
			t.Fatalf("%s: pair not in one bucket", pr.name)
		}
		want := maskDistance(pr.a, pr.b)
		for d := 0; d <= 4; d++ {
			if got := withinDistance(&pa, &pb, d); got != (want <= d) {
				t.Fatalf("%s: distance %d, withinDistance(d=%d) = %v", pr.name, want, d, got)
			}
		}
	}
}

func TestFeedbackIgnored(t *testing.T) {
	g := New()
	if err := g.Init([]ipaddr.Addr{ipaddr.MustParse("2001:db8::1"), ipaddr.MustParse("2001:db8::2")}); err != nil {
		t.Fatal(err)
	}
	g.Feedback([]tga.ProbeResult{{Active: true}})
	if len(g.NextBatch(5)) == 0 {
		t.Fatal("generation stopped after feedback")
	}
}

// clusterCount reports the number of merged patterns (diagnostics).
func (g *Generator) clusterCount() int { return g.clusters.Len() }

// clusterWidth reports the total variable positions across clusters — a
// measure of how much merging widened the patterns (diagnostics).
func (g *Generator) clusterWidth() int {
	total := 0
	for _, c := range g.model.Clusters {
		for _, m := range c.Masks {
			if bits.OnesCount16(m) > 1 {
				total++
			}
		}
	}
	return total
}

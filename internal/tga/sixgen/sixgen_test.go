package sixgen

import (
	"testing"

	"seedscan/internal/ipaddr"
)

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "6Gen" || g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestClusteringGroupsNearbySeeds(t *testing.T) {
	g := New()
	// Two tight groups in distinct /64s of the same /32.
	var seeds []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8:0:1::10")
	b := ipaddr.MustParse("2001:db8:0:2::90")
	for i := 0; i < 8; i++ {
		seeds = append(seeds, a.AddLo(uint64(i)), b.AddLo(uint64(i)))
	}
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	// The nybble-distance radius keeps the two groups apart: their subnet
	// nybble and IID nybbles differ beyond radius 4 in combination.
	if g.clusterCount() < 2 {
		t.Fatalf("clusters = %d", g.clusterCount())
	}
}

func TestSeparatePrefixesNeverCluster(t *testing.T) {
	g := New()
	seeds := []ipaddr.Addr{
		ipaddr.MustParse("2001:db8::1"),
		ipaddr.MustParse("2600:9000::1"),
	}
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	if g.clusterCount() != 2 {
		t.Fatalf("clusters = %d, want 2", g.clusterCount())
	}
}

func TestGenerationEnumeratesClusterRanges(t *testing.T) {
	g := New()
	var seeds []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	// Seeds at ::11, ::12, ::21, ::22 → range {1,2}x{1,2}.
	for _, lo := range []uint64{0x11, 0x12, 0x21, 0x22} {
		seeds = append(seeds, base.AddLo(lo))
	}
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	got := ipaddr.NewSet()
	for i := 0; i < 3; i++ {
		got.AddAll(g.NextBatch(50))
	}
	// The range's cross-combinations must appear early.
	// (Seeds themselves may be emitted; the driver filters those.)
	if !got.Contains(base.AddLo(0x11)) && !got.Contains(base.AddLo(0x21)) {
		t.Fatal("range enumeration missing in-range values")
	}
	for _, a := range got.Slice() {
		if !ipaddr.MustParsePrefix("2001:db8::/32").Contains(a) {
			t.Fatalf("candidate %v escaped the cluster prefix", a)
		}
	}
}

func TestNoDuplicates(t *testing.T) {
	g := New()
	var seeds []ipaddr.Addr
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 40; i++ {
		seeds = append(seeds, base.AddLo(uint64(i*3)))
	}
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	seen := ipaddr.NewSet()
	for i := 0; i < 5; i++ {
		for _, a := range g.NextBatch(200) {
			if !seen.Add(a) {
				t.Fatalf("duplicate %v", a)
			}
		}
	}
}

func TestMaxClustersCap(t *testing.T) {
	g := New()
	g.clusterCap = 4
	var seeds []ipaddr.Addr
	// Many far-apart seeds within one /32 (distinct at >radius distance).
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < 40; i++ {
		a := base
		for pos := 16; pos < 28; pos++ {
			a = a.WithNybble(pos, byte((i*7+pos)%16))
		}
		seeds = append(seeds, a)
	}
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	if g.clusterCount() > 4 {
		t.Fatalf("clusters = %d, cap ignored", g.clusterCount())
	}
}

// clusterCount reports the number of clusters built (diagnostics).
func (g *Generator) clusterCount() int { return g.clusters.Len() }

package seeds

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/world"
)

func testWorld(t testing.TB) *world.World {
	t.Helper()
	return world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
}

func TestSourceMetadata(t *testing.T) {
	if len(AllSources) != int(sourceCount) {
		t.Fatalf("AllSources lists %d, want %d", len(AllSources), sourceCount)
	}
	seen := map[string]bool{}
	for _, s := range AllSources {
		if s.String() == "" || seen[s.String()] {
			t.Fatalf("bad/duplicate name for %d", s)
		}
		seen[s.String()] = true
		if c := s.Category(); c != "D" && c != "R" && c != "Both" {
			t.Fatalf("%v category %q", s, c)
		}
	}
	if !SourceUmbrella.isToplist() || SourceCensys.isToplist() {
		t.Fatal("IsToplist wrong")
	}
	if SourceScamper.Category() != "R" || SourceHitlist.Category() != "Both" {
		t.Fatal("categories wrong")
	}
}

func TestCollectVolumesAndDeterminism(t *testing.T) {
	w := testWorld(t)
	cfg := CollectConfig{Seed: 1}
	ds := CollectAll(w, cfg)
	if len(ds) != len(AllSources) {
		t.Fatalf("collected %d sources", len(ds))
	}
	// Relative volumes: Censys and Rapid7 and AddrMiner are the big ones;
	// toplists are small.
	if ds[SourceCensys].Len() < 10*ds[SourceUmbrella].Len() {
		t.Fatalf("Censys (%d) should dwarf Umbrella (%d)",
			ds[SourceCensys].Len(), ds[SourceUmbrella].Len())
	}
	if ds[SourceAddrMiner].Len() < ds[SourceRIPEAtlas].Len() {
		t.Fatal("AddrMiner should be larger than RIPE Atlas")
	}
	// Determinism.
	again := Collect(w, SourceCensys, cfg)
	if again.Len() != ds[SourceCensys].Len() {
		t.Fatal("collection not deterministic")
	}
	d := again.Addrs.Diff(ds[SourceCensys].Addrs)
	if d.Len() != 0 {
		t.Fatalf("same-seed collections differ by %d addrs", d.Len())
	}
}

func TestCollectScale(t *testing.T) {
	w := testWorld(t)
	small := Collect(w, SourceScamper, CollectConfig{Seed: 1, Scale: 0.1})
	big := Collect(w, SourceScamper, CollectConfig{Seed: 1, Scale: 1})
	if small.Len() >= big.Len() {
		t.Fatalf("scale had no effect: %d vs %d", small.Len(), big.Len())
	}
}

func TestSourceBiases(t *testing.T) {
	w := testWorld(t)
	ds := CollectAll(w, CollectConfig{Seed: 1})
	db := w.ASDB()

	// Traceroute sources cover far more ASes relative to their size.
	scamperASes := ds[SourceScamper].ASCount(db)
	censysASes := ds[SourceCensys].ASCount(db)
	if scamperASes < censysASes/2 {
		t.Fatalf("Scamper AS coverage %d too low vs Censys %d", scamperASes, censysASes)
	}
	// Scamper samples only infrastructure: routers and dark space (plus
	// alias pollution).
	infraOnly := 0
	ds[SourceScamper].Addrs.Each(func(a ipaddr.Addr) {
		if r, ok := w.RegionOf(a); ok &&
			(r.Class == world.ClassRouter || r.Class == world.ClassDark || r.Aliased) {
			infraOnly++
		}
	})
	if got := float64(infraOnly) / float64(ds[SourceScamper].Len()); got < 0.95 {
		t.Fatalf("Scamper infrastructure fraction = %.2f", got)
	}

	// AddrMiner is alias-heavy; Hitlist is alias-light.
	aliasFrac := func(d *Dataset) float64 {
		n := 0
		d.Addrs.Each(func(a ipaddr.Addr) {
			if w.IsAliased(a) {
				n++
			}
		})
		return float64(n) / float64(d.Len())
	}
	if am, hl := aliasFrac(ds[SourceAddrMiner]), aliasFrac(ds[SourceHitlist]); am < 0.5 || hl > 0.1 {
		t.Fatalf("alias fractions: AddrMiner %.2f (want >0.5), Hitlist %.2f (want <0.1)", am, hl)
	}

	// Hitlist is mostly existing hosts at collection time.
	alive := 0
	ds[SourceHitlist].Addrs.Each(func(a ipaddr.Addr) {
		if w.ExistsAt(a, world.CollectEpoch) || w.IsAliased(a) {
			alive++
		}
	})
	if got := float64(alive) / float64(ds[SourceHitlist].Len()); got < 0.7 {
		t.Fatalf("Hitlist alive fraction = %.2f", got)
	}
}

func TestToplistsOverlap(t *testing.T) {
	w := testWorld(t)
	ds := CollectAll(w, CollectConfig{Seed: 1})
	// The shared popularity ranking should make toplists overlap far more
	// than independent random samples would.
	u, tr := ds[SourceUmbrella], ds[SourceTranco]
	inter := u.Intersect(tr, "x").Len()
	if inter == 0 {
		t.Fatal("toplists share no addresses")
	}
}

func TestDatasetAlgebra(t *testing.T) {
	a := FromAddrs("a", []ipaddr.Addr{ipaddr.MustParse("::1"), ipaddr.MustParse("::2")})
	b := FromAddrs("b", []ipaddr.Addr{ipaddr.MustParse("::2"), ipaddr.MustParse("::3")})
	if got := a.Intersect(b, "i").Len(); got != 1 {
		t.Fatalf("intersect = %d", got)
	}
	c := a.clone("c")
	c.Addrs.Add(ipaddr.MustParse("::9"))
	if a.Len() != 2 || c.Len() != 3 {
		t.Fatal("Clone not independent")
	}
	r := a.Restrict("r", b.Addrs)
	if r.Len() != 1 || !r.Addrs.Contains(ipaddr.MustParse("::2")) {
		t.Fatal("Restrict wrong")
	}
	// Digest keys content: the same addresses in another order under
	// another name digest alike, other addresses do not.
	ba := FromAddrs("ba", []ipaddr.Addr{ipaddr.MustParse("::2"), ipaddr.MustParse("::1")})
	if a.Digest() != ba.Digest() || a.Digest() == b.Digest() || a.Digest() == r.Digest() {
		t.Fatalf("digests a %x, ba %x, b %x, r %x", a.Digest(), ba.Digest(), b.Digest(), r.Digest())
	}
}

func TestFullDatasetComposition(t *testing.T) {
	w := testWorld(t)
	ds := CollectAll(w, CollectConfig{Seed: 1})
	all := CombineAll(ds)
	// The union must be smaller than the sum (overlap exists) but larger
	// than any single source.
	sum := 0
	for _, d := range ds {
		sum += d.Len()
		if d.Len() > all.Len() {
			t.Fatalf("source %s larger than union", d.Name)
		}
	}
	if all.Len() >= sum {
		t.Fatal("no overlap between sources at all")
	}
	if all.Len() < 50000 {
		t.Fatalf("full dataset too small: %d", all.Len())
	}
}

// clone deep-copies the dataset under a new name.
func (d *Dataset) clone(name string) *Dataset {
	return &Dataset{Name: name, Addrs: d.Addrs.Clone()}
}

// isToplist reports whether s is a domain toplist.
func (s Source) isToplist() bool {
	switch s {
	case SourceUmbrella, SourceMajestic, SourceTranco, SourceSecRank, SourceRadar:
		return true
	}
	return false
}

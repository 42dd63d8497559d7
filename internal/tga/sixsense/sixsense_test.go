package sixsense

import (
	"math/rand"
	"reflect"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/world"
)

func denseSeeds() []ipaddr.Addr {
	var out []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8::")
	b := ipaddr.MustParse("2600:9000:1::")
	for i := 1; i <= 50; i++ {
		out = append(out, a.AddLo(uint64(i)), b.AddLo(uint64(i)))
	}
	return out
}

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "6Sense" || !g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestArmsPerPrefix(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	if g.armCount() != 2 {
		t.Fatalf("arms = %d, want one per /32", g.armCount())
	}
}

func TestGenerationFollowsArmModels(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	p1 := ipaddr.MustParsePrefix("2001:db8::/32")
	p2 := ipaddr.MustParsePrefix("2600:9000::/32")
	batch := g.NextBatch(200)
	if len(batch) == 0 {
		t.Fatal("no candidates")
	}
	for _, a := range batch {
		if !p1.Contains(a) && !p2.Contains(a) {
			t.Fatalf("candidate %v outside both seed /32s", a)
		}
	}
}

func TestIntegratedDealiasingBlacklists(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	batch := g.NextBatch(64)
	if len(batch) == 0 {
		t.Fatal("no candidates")
	}
	// Flag the first few candidates as aliased.
	fb := make([]tga.ProbeResult, len(batch))
	for i, a := range batch {
		fb[i] = tga.ProbeResult{Addr: a, Active: true, Aliased: i < 8}
	}
	g.Feedback(fb)
	if g.blacklistedPrefixes() == 0 {
		t.Fatal("aliased feedback did not blacklist")
	}
	// Future candidates avoid blacklisted /96s.
	flagged := ipaddr.PrefixFrom(batch[0], 96)
	for i := 0; i < 10; i++ {
		for _, a := range g.NextBatch(128) {
			if flagged.Contains(a) {
				t.Fatalf("candidate %v inside blacklisted /96", a)
			}
		}
	}
}

// TestSixSenseBlacklistGrows runs 6Sense against the simulated world with
// half its seeds in aliased regions: the online dealiaser's verdicts must
// reach the generator's own /96 blacklist.
func TestSixSenseBlacklistGrows(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	sc := scanner.New(w.Link(), scanner.WithSecret(5))
	w.SetEpoch(world.ScanEpoch)
	aliasSamp := w.NewSampler(3000)
	samp := w.NewSampler(3001)
	seeds := append(samp.Hosts(500), aliasSamp.Aliased(500)...)
	g := New()
	dealiaser := alias.New(alias.ModeOnline, nil, sc, proto.ICMP, 78, nil)
	_, err := tga.Run(g, seeds, tga.RunConfig{
		Budget: 3000, BatchSize: 512, Proto: proto.ICMP,
		Prober: sc, Dealiaser: dealiaser, ExcludeSeeds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.blacklistedPrefixes() == 0 {
		t.Fatal("integrated dealiaser never blacklisted a /96")
	}
}

func TestDiversityShareReachesColdArms(t *testing.T) {
	// One hot arm (many seeds) + many one-seed arms: the diversity share
	// must still probe the cold arms.
	var seeds []ipaddr.Addr
	hot := ipaddr.MustParse("2001:db8::")
	for i := 1; i <= 200; i++ {
		seeds = append(seeds, hot.AddLo(uint64(i)))
	}
	var coldPrefixes []ipaddr.Prefix
	for i := 0; i < 10; i++ {
		base := ipaddr.AddrFrom64s(0x2600_0000_0000_0000|uint64(i+1)<<32, 0)
		seeds = append(seeds, base.AddLo(1))
		coldPrefixes = append(coldPrefixes, ipaddr.PrefixFrom(base, 32))
	}
	g := New()
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	batch := g.NextBatch(500)
	coldTouched := 0
	for _, p := range coldPrefixes {
		for _, a := range batch {
			if p.Contains(a) {
				coldTouched++
				break
			}
		}
	}
	if coldTouched < 5 {
		t.Fatalf("diversity share touched only %d/10 cold arms", coldTouched)
	}
}

func TestHitsSharpenModel(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	target := ipaddr.MustParsePrefix("2001:db8::/32")
	// Reward the 2001:db8 arm heavily.
	for round := 0; round < 5; round++ {
		batch := g.NextBatch(256)
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: target.Contains(a)}
		}
		g.Feedback(fb)
	}
	batch := g.NextBatch(400)
	in := 0
	for _, a := range batch {
		if target.Contains(a) {
			in++
		}
	}
	// Exploit share (75%) should lean to the rewarded arm.
	if frac := float64(in) / float64(len(batch)); frac < 0.55 {
		t.Fatalf("rewarded arm got only %.2f of the batch", frac)
	}
}

// denseMarkov is the full transition table the sparse rows replaced,
// kept as the reference they must match draw for draw.
type denseMarkov struct {
	counts   [ipaddr.NybbleCount - modelStart][16][16]int32
	marginal [ipaddr.NybbleCount - modelStart][16]int32
}

func (m *denseMarkov) observe(addr ipaddr.Addr, weight int32) {
	prev := addr.Nybble(modelStart - 1)
	for pos := modelStart; pos < ipaddr.NybbleCount; pos++ {
		v := addr.Nybble(pos)
		m.counts[pos-modelStart][prev][v] += weight
		m.marginal[pos-modelStart][v] += weight
		prev = v
	}
}

func (m *denseMarkov) sample(fixed [prefixNybbles]byte, rng *rand.Rand) ipaddr.Addr {
	var out ipaddr.Addr
	for i, v := range fixed {
		out = out.WithNybble(i, v)
	}
	prev := fixed[prefixNybbles-1]
	for pos := modelStart; pos < ipaddr.NybbleCount; pos++ {
		row := &m.counts[pos-modelStart][prev]
		total := sum(row)
		if total == 0 {
			row = &m.marginal[pos-modelStart]
			total = sum(row)
		}
		var v byte
		if total > 0 {
			v = weightedPick(row, total, rng)
		}
		out = out.WithNybble(pos, v)
		prev = v
	}
	return out
}

// TestSparseMarkovMatchesDense: an arm's sparse rows and the dense table,
// trained on the same seeds and sharpened with the same addresses in
// between draws, give the same 10^5 draws from equally seeded rngs; and
// sharpening a run's arm leaves the mined one as it was.
func TestSparseMarkovMatchesDense(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	base := ipaddr.MustParse("2001:db8::")
	seeds := make([]ipaddr.Addr, 300)
	for i := range seeds {
		// Low-entropy interface IDs, as most seeds have, plus a few random
		// ones that open contexts of their own.
		lo := uint64(gen.Intn(64)) | uint64(gen.Intn(4))<<48
		if i%10 == 0 {
			lo = gen.Uint64()
		}
		seeds[i] = ipaddr.AddrFrom64s(base.Hi()|uint64(gen.Intn(16)), lo)
	}
	build := func() *model {
		m, err := New().BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*model)
	}
	mined, twin := build(), build()
	if len(mined.arms) != 1 {
		t.Fatalf("arms = %d, want 1", len(mined.arms))
	}
	var dense denseMarkov
	for _, s := range seeds {
		dense.observe(s, 1)
	}
	run := &armRun{arm: &mined.arms[0], m: &mined.arms[0].markov}

	sparseRng, denseRng := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100_000; i++ {
		got, want := run.sample(sparseRng), dense.sample(run.fixed, denseRng)
		if got != want {
			t.Fatalf("draw %d: sparse %v, dense %v", i, got, want)
		}
		// Sharpen both: with the draw itself, and now and then with a
		// random address of the arm that may open an unseen context.
		if i%97 == 0 {
			run.observe(got, 2)
			dense.observe(got, 2)
		}
		if i%1009 == 0 {
			a := ipaddr.AddrFrom64s(base.Hi()|gen.Uint64()&0xffff_ffff, gen.Uint64())
			run.observe(a, 2)
			dense.observe(a, 2)
		}
	}
	if run.m == &mined.arms[0].markov {
		t.Fatal("sharpening did not give the run its own model")
	}
	if !reflect.DeepEqual(mined, twin) {
		t.Fatal("sharpening a run's arm changed the mined model")
	}
}

// armCount reports the number of /32 arms (diagnostics).
func (g *Generator) armCount() int { return len(g.arms) }

// blacklistedPrefixes reports how many /96s the integrated dealiaser has
// blacklisted (diagnostics).
func (g *Generator) blacklistedPrefixes() int { return g.aliasBlacklist.Len() }

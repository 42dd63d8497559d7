package sixscan

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

func denseSeeds() []ipaddr.Addr {
	var out []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8::")
	b := ipaddr.MustParse("2600:9000:1::")
	for i := 1; i <= 30; i++ {
		out = append(out, a.AddLo(uint64(i)), b.AddLo(uint64(i)))
	}
	return out
}

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "6Scan" || !g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestRegionFeedbackReprioritizes(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	reward := ipaddr.MustParsePrefix("2600:9000::/32")
	for round := 0; round < 5; round++ {
		batch := g.NextBatch(200)
		if len(batch) == 0 {
			t.Fatal("generator dry")
		}
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: reward.Contains(a)}
		}
		g.Feedback(fb)
	}
	batch := g.NextBatch(400)
	in := 0
	for _, a := range batch {
		if reward.Contains(a) {
			in++
		}
	}
	if frac := float64(in) / float64(len(batch)); frac < 0.5 {
		t.Fatalf("hot-region share = %.2f after region feedback", frac)
	}
}

func TestColdShareKeepsRoundRobin(t *testing.T) {
	g := New()
	g.topShare = 0.5
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	reward := ipaddr.MustParsePrefix("2600:9000::/32")
	for round := 0; round < 4; round++ {
		batch := g.NextBatch(200)
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: reward.Contains(a)}
		}
		g.Feedback(fb)
	}
	batch := g.NextBatch(400)
	cold := 0
	for _, a := range batch {
		if !reward.Contains(a) {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("cold regions fully starved")
	}
}

func TestLowDuplicateRate(t *testing.T) {
	// Widened leaves may overlap each other's space, so cross-leaf
	// duplicates are possible (the run driver dedups globally); the rate
	// must stay low.
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	seen := ipaddr.NewSet()
	total, dups := 0, 0
	for i := 0; i < 6; i++ {
		batch := g.NextBatch(150)
		for _, a := range batch {
			total++
			if !seen.Add(a) {
				dups++
			}
		}
		g.Feedback(nil)
	}
	if total == 0 {
		t.Fatal("nothing generated")
	}
	if rate := float64(dups) / float64(total); rate > 0.2 {
		t.Fatalf("duplicate rate %.2f too high", rate)
	}
}

func TestFeedbackForUnknownAddrHarmless(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	g.Feedback([]tga.ProbeResult{{Addr: ipaddr.MustParse("fe80::1"), Active: true}})
	if len(g.NextBatch(10)) == 0 {
		t.Fatal("generation stopped")
	}
}

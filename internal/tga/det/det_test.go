package det

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

func denseSeeds() []ipaddr.Addr {
	var out []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8::")
	b := ipaddr.MustParse("2600:9000:1::")
	for i := 1; i <= 40; i++ {
		out = append(out, a.AddLo(uint64(i)), b.AddLo(uint64(i*16)))
	}
	return out
}

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "DET" || !g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestFeedbackSteersAllocation(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	rewardPrefix := ipaddr.MustParsePrefix("2001:db8::/32")

	// Reward only candidates in 2001:db8::/32 for several rounds.
	for round := 0; round < 6; round++ {
		batch := g.NextBatch(256)
		if len(batch) == 0 {
			t.Fatal("generator dry")
		}
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: rewardPrefix.Contains(a)}
		}
		g.Feedback(fb)
	}
	// Allocation must now lean toward the rewarded prefix.
	batch := g.NextBatch(512)
	in := 0
	for _, a := range batch {
		if rewardPrefix.Contains(a) {
			in++
		}
	}
	if frac := float64(in) / float64(len(batch)); frac < 0.5 {
		t.Fatalf("only %.2f of the batch targets the rewarded prefix", frac)
	}
}

func TestRebuildFoldsHitsIn(t *testing.T) {
	g := New()
	g.rebuildEvery = 2
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		batch := g.NextBatch(128)
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: i%3 == 0}
		}
		g.Feedback(fb)
	}
	if g.rebuilds < 2 {
		t.Fatalf("rebuilds = %d", g.rebuilds)
	}
	// After rebuilds, generation continues without duplicates.
	seen := ipaddr.NewSet()
	for i := 0; i < 4; i++ {
		for _, a := range g.NextBatch(128) {
			if !seen.Add(a) {
				t.Fatalf("duplicate %v emitted after rebuild", a)
			}
		}
	}
}

func TestNoDuplicateEmissionsEver(t *testing.T) {
	g := New()
	g.rebuildEvery = 1 // stress: rebuild after every feedback
	if err := g.Init(seedsFrom("2001:db8::1", "2001:db8::2", "2001:db8::3", "2001:db8::9")); err != nil {
		t.Fatal(err)
	}
	seen := ipaddr.NewSet()
	for round := 0; round < 10; round++ {
		batch := g.NextBatch(64)
		if len(batch) == 0 {
			break
		}
		for _, a := range batch {
			if !seen.Add(a) {
				t.Fatalf("duplicate %v", a)
			}
		}
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: a.Lo()%2 == 0}
		}
		g.Feedback(fb)
	}
}

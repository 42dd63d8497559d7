package experiment

import (
	"context"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// The whole pipeline must be reproducible: two environments with the same
// configuration, each running experiments concurrently, must produce
// byte-identical results.
func TestEndToEndDeterminism(t *testing.T) {
	cfg := EnvConfig{NumASes: 70, CollectScale: 0.2, Budget: 2000}
	build := func() (string, string, string) {
		e := NewEnv(cfg)
		sum := e.DatasetSummary().Render()
		rq1a, err := e.RunRQ1aCtx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree", "6Sense", "DET"}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		rq4, err := e.RunRQ4Ctx(context.Background(), []proto.Protocol{proto.ICMP}, []string{"6Tree", "6Gen"}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return sum, rq1a.Render(), rq4.Render()
	}
	s1, a1, f1 := build()
	s2, a2, f2 := build()
	if s1 != s2 {
		t.Error("Table 3 not reproducible")
	}
	if a1 != a2 {
		t.Error("RQ1.a not reproducible")
	}
	if f1 != f2 {
		t.Error("RQ4 not reproducible")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	e1 := NewEnv(EnvConfig{WorldSeed: 5, NumASes: 70, CollectScale: 0.2})
	e2 := NewEnv(EnvConfig{WorldSeed: 6, NumASes: 70, CollectScale: 0.2})
	if e1.DatasetSummary().Render() == e2.DatasetSummary().Render() {
		t.Fatal("different world seeds produced identical summaries")
	}
}

// Treatment datasets are insertion-ordered sets built by seeded collectors,
// so their iteration order — not just their content — must be the same in
// two environments with one configuration; anything that samples a prefix
// of Slice() (the packet-path ablation does) depends on it.
func TestTreatmentOrderDeterministic(t *testing.T) {
	cfg := EnvConfig{NumASes: 70, CollectScale: 0.2, Budget: 2000}
	e1, e2 := NewEnv(cfg), NewEnv(cfg)
	sameOrder := func(name string, a, b []ipaddr.Addr) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d addresses", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: order differs at %d: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	sameOrder("Full", e1.Full.Slice(), e2.Full.Slice())
	sameOrder("Dealiased/joint", e1.DealiasedSeeds(alias.ModeJoint).Slice(), e2.DealiasedSeeds(alias.ModeJoint).Slice())
	a1, a2 := e1.AllActiveSeeds().Slice(), e2.AllActiveSeeds().Slice()
	sameOrder("All Active", a1, a2)
	if len(a1) > 2000 {
		a1, a2 = a1[:2000], a2[:2000]
	}
	if g1, g2 := e1.ScanAgreement(a1, proto.ICMP), e2.ScanAgreement(a2, proto.ICMP); g1 != g2 {
		t.Fatalf("ScanAgreement differs between identical environments: %v vs %v", g1, g2)
	}
}

package experiment

import (
	"context"
	"testing"

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

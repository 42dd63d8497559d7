package experiment

import (
	"context"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/wire"
)

// The whole pipeline must be reproducible: two environments with the same
// configuration, each running experiments concurrently, must produce
// byte-identical results.
func TestEndToEndDeterminism(t *testing.T) {
	cfg := EnvConfig{NumASes: 70, CollectScale: 0.2, Budget: 2000}
	build := func() (string, string, string) {
		e := NewEnv(cfg)
		sum := e.datasetSummary().Render()
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
	if e1.datasetSummary().Render() == e2.datasetSummary().Render() {
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
	sameOrder("Dealiased/joint", e1.dealiasedSeeds(alias.ModeJoint).Slice(), e2.dealiasedSeeds(alias.ModeJoint).Slice())
	a1, a2 := e1.AllActiveSeeds().Slice(), e2.AllActiveSeeds().Slice()
	sameOrder("All Active", a1, a2)
	if len(a1) > 2000 {
		a1, a2 = a1[:2000], a2[:2000]
	}
	if g1, g2 := e1.ScanAgreement(a1, proto.ICMP), e2.ScanAgreement(a2, proto.ICMP); g1 != g2 {
		t.Fatalf("ScanAgreement differs between identical environments: %v vs %v", g1, g2)
	}
}

// TestFingerprintReadsOnlyFaults pins the env fingerprint against the
// wire chain: without faults it is the same string it was before chains
// entered it (so existing checkpoint stores and goldens still resume),
// taps, shaping, rotation and all-zero faults leave it unchanged, and
// each fault knob moves it — as does rotation once faults are set, since
// faults draw from the rotated packets.
func TestFingerprintReadsOnlyFaults(t *testing.T) {
	const bare = "w42-a40-l0.01-c7-s0.2-o0.6-k5eed5ca9-d84cf7c7810904635"
	fp := func(chain string) string {
		c, err := wire.ParseChainConfig(chain, 42)
		if err != nil {
			t.Fatal(err)
		}
		return NewEnv(EnvConfig{NumASes: 40, CollectScale: 0.2, Wire: c}).Fingerprint()
	}
	for _, chain := range []string{"", "taps", "shape pps=1000,jitter=0.5", "rotate 2001:db8::1,2001:db8::2", "taps; shape pps=10; rotate ::1", "faults loss=0,seed=5"} {
		if got := fp(chain); got != bare {
			t.Errorf("chain %q: fingerprint %q, want %q", chain, got, bare)
		}
	}
	seen := map[string]string{}
	for _, chain := range []string{
		"faults loss=0.3",
		"faults loss=0.3,seed=7",
		"faults loss=0.3,dup=0.1",
		"faults loss=0.3,delay=0.1",
		"faults loss=0.2",
		"faults loss=0.3; rotate 2001:db8::1,2001:db8::2",
		"faults loss=0.3; rotate 2001:db8::3",
	} {
		got := fp(chain)
		if prev, dup := seen[got]; got == bare || dup {
			t.Errorf("chain %q: fingerprint %q is the bare one or that of %q", chain, got, prev)
		}
		seen[got] = chain
	}
}

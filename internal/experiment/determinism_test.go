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
	fp := func(c wire.ChainConfig) string {
		return NewEnv(EnvConfig{NumASes: 40, CollectScale: 0.2, Wire: c}).Fingerprint()
	}
	pool := func(addrs ...string) []ipaddr.Addr {
		out := make([]ipaddr.Addr, len(addrs))
		for i, a := range addrs {
			out[i] = ipaddr.MustParse(a)
		}
		return out
	}
	loss := func(p float64, seed uint64) wire.FaultsConfig { return wire.FaultsConfig{Loss: p, Seed: seed} }
	for _, c := range []wire.ChainConfig{
		{},
		{Taps: true},
		{Shape: wire.ShapeConfig{PPS: 1000, Jitter: 0.5, Seed: 42}},
		{Rotate: wire.RotateConfig{Seed: 42, Pool: pool("2001:db8::1", "2001:db8::2")}},
		{Taps: true, Shape: wire.ShapeConfig{PPS: 10, Seed: 42}, Rotate: wire.RotateConfig{Seed: 42, Pool: pool("::1")}},
		{Faults: loss(0, 5)},
	} {
		if got := fp(c); got != bare {
			t.Errorf("chain %q: fingerprint %q, want %q", c, got, bare)
		}
	}
	seen := map[string]string{}
	for _, c := range []wire.ChainConfig{
		{Faults: loss(0.3, 42)},
		{Faults: loss(0.3, 7)},
		{Faults: wire.FaultsConfig{Loss: 0.3, Dupe: 0.1, Seed: 42}},
		{Faults: wire.FaultsConfig{Loss: 0.3, Delay: 0.1, Seed: 42}},
		{Faults: loss(0.2, 42)},
		{Faults: loss(0.3, 42), Rotate: wire.RotateConfig{Seed: 42, Pool: pool("2001:db8::1", "2001:db8::2")}},
		{Faults: loss(0.3, 42), Rotate: wire.RotateConfig{Seed: 42, Pool: pool("2001:db8::3")}},
	} {
		got := fp(c)
		if prev, dup := seen[got]; got == bare || dup {
			t.Errorf("chain %q: fingerprint %q is the bare one or that of %q", c, got, prev)
		}
		seen[got] = c.String()
	}
}

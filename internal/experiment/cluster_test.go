package experiment

import (
	"context"
	"testing"

	"seedscan/internal/cluster"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// TestClusterEnvMatchesSingleScanner runs the same TGA experiment through
// a plain single-scanner environment and a 3-worker clustered one: seed
// preprocessing, generation, scanning, and dealiasing must all land on
// identical results, because the cluster's merged scans are byte-identical
// to the reference scanner's.
func TestClusterEnvMatchesSingleScanner(t *testing.T) {
	cfg := EnvConfig{NumASes: 80, CollectScale: 0.25, Budget: 1500}
	single := NewEnv(cfg)
	cfg.ClusterWorkers = 3
	clustered := NewEnv(cfg)

	if _, ok := clustered.Prober.(*cluster.Pool); !ok {
		t.Fatalf("clustered env prober is %T, want *cluster.Pool", clustered.Prober)
	}

	// Seed preprocessing scans through the prober: the derived datasets
	// must agree before any TGA runs.
	sa, sc := single.AllActiveSeeds(), clustered.AllActiveSeeds()
	if sa.Len() != sc.Len() {
		t.Fatalf("All Active seeds: single %d, clustered %d", sa.Len(), sc.Len())
	}
	// Generators take their seeds in canonical sorted order; feed both runs
	// the same list so any divergence below is the cluster's fault.
	seedsSingle, seedsClustered := sa.Addrs.Sorted(), sc.Addrs.Sorted()
	for i, a := range seedsSingle {
		if b := seedsClustered[i]; a != b {
			t.Fatalf("All Active seed %d: single %v, clustered %v", i, a, b)
		}
	}

	for _, gen := range []string{"6Tree", "EIP"} {
		rs, err := single.RunTGACtx(context.Background(), gen, seedsSingle, proto.ICMP, 1500)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := clustered.RunTGACtx(context.Background(), gen, seedsClustered, proto.ICMP, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Outcome != rc.Outcome {
			t.Fatalf("%s outcome: single %+v, clustered %+v", gen, rs.Outcome, rc.Outcome)
		}
		// Hit order is unspecified (map iteration inside generators and
		// the dealiaser — single-scanner runs differ between themselves
		// too), so compare the hit sets.
		hs := ipaddr.NewSet(rs.Run.Hits...).Sorted()
		hc := ipaddr.NewSet(rc.Run.Hits...).Sorted()
		if len(hs) != len(hc) {
			t.Fatalf("%s hits: single %d, clustered %d", gen, len(hs), len(hc))
		}
		for i := range hs {
			if hs[i] != hc[i] {
				t.Fatalf("%s hit %d: single %v, clustered %v", gen, i, hs[i], hc[i])
			}
		}
	}
}

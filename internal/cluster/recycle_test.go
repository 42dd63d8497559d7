package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// recycledClusterDigest is the digest of TestRecyclingLeavesClusterDigest's
// results with recycling off (go test -tags poison, SEEDSCAN_RECYCLE=off).
const recycledClusterDigest = "9cda3fd7c4159f63ac1059a44effa5fc59871cd2f9bc958a8009c1c5918f6da9"

// TestRecyclingLeavesClusterDigest scans identityInput through a local
// pool of three workers behind a faulty tapped chain, over every protocol
// twice, so that later scans take the coordinator's plans and lease
// buffers and the workers' scanner scratch that earlier ones gave back.
// The results and stats must hash to the digest of runs with recycling
// off; under the poison tag every recycled value arrives scribbled.
func TestRecyclingLeavesClusterDigest(t *testing.T) {
	w := clusterWorld(t)
	targets, blocked := identityInput(t, w)
	pool := NewLocalPool(3, w.Link(), Config{Secret: testSecret, shardSize: 97, Wire: testChain(true)},
		scanner.WithBlocklist(blocked))
	h := sha256.New()
	for round := 0; round < 2; round++ {
		for _, p := range proto.All {
			res, err := pool.Run(context.Background(), targets, p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%v %d %v\n", p, round, res.Stats.Values())
			for _, r := range res.Results {
				fmt.Fprintf(h, "%v %v %d\n", r.Addr, r.Status, r.Attempts)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != recycledClusterDigest {
		t.Fatalf("results digest %s, want %s (recycling off)", got, recycledClusterDigest)
	}
}

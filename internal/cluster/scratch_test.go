package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// TestExtremeShardSizeMatchesSingleScanner: a shardSize near math.MaxInt
// is one shard of every target, not an overflowed shard count (no shards,
// or a negative one) or a lease buffer sized by it. Each pool runs twice,
// the second time in its first run's recycled scratch.
func TestExtremeShardSizeMatchesSingleScanner(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)[:10]
	p := proto.TCP443
	wantRes, wantStats := baseline(w.Link(), targets, p)
	for _, size := range []int{math.MaxInt, math.MaxInt - 5, 1 << 62} {
		pool := NewLocalPool(2, w.Link(), Config{Secret: testSecret, shardSize: size})
		for run := 0; run < 2; run++ {
			label := fmt.Sprintf("shardSize %d, run %d", size, run)
			got, err := pool.Run(context.Background(), targets, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Shards != 1 {
				t.Fatalf("%s: %d shards, want 1", label, got.Shards)
			}
			assertIdentical(t, label, got, wantRes, wantStats)
		}
	}
}

// straggler holds its first lease past expiry, ignoring cancellation,
// until release is closed. Then it checks that its window still reads as
// leased and scans it into the lease's buffer, as a late worker would,
// and reports the check on checked. Later leases it runs normally.
type straggler struct {
	*localWorker
	first   atomic.Bool
	held    chan struct{}
	release chan struct{}
	checked chan error
}

func (s *straggler) RunShard(ctx context.Context, job Job, shard Shard, beat func(int)) (*ShardResult, error) {
	if !s.first.CompareAndSwap(false, true) {
		return s.localWorker.RunShard(ctx, job, shard, beat)
	}
	window := slices.Clone(shard.targets)
	close(s.held)
	<-s.release
	var err error
	if !slices.Equal(shard.targets, window) {
		err = fmt.Errorf("shard %d's window changed under the straggler holding it", shard.id)
	}
	res, scanErr := s.localWorker.RunShard(context.Background(), job, shard, beat)
	s.checked <- errors.Join(err, scanErr)
	return res, scanErr
}

// TestStragglerNeverSharesScratch pins when a Coordinator recycles a
// Run's plan and lease buffers: never while a straggler on an expired
// lease is still out. The first Run ends with the straggler holding a
// lease; a second Run on the same Coordinator plans a different order
// and must not plan it into the straggler's window, which still reads as
// leased once the straggler is released.
func TestStragglerNeverSharesScratch(t *testing.T) {
	w := clusterWorld(t)
	targets := testTargets(t, w)
	s := &straggler{
		localWorker: testWorker(w, "late"),
		held:        make(chan struct{}),
		release:     make(chan struct{}),
		checked:     make(chan error, 1),
	}
	coord := NewCoordinator(Config{Secret: testSecret, shardSize: 128, leaseTimeout: 50 * time.Millisecond})
	workers := []Worker{s, testWorker(w, "w1"), testWorker(w, "w2")}

	for i, p := range []proto.Protocol{proto.ICMP, proto.UDP53} {
		wantRes, wantStats := baseline(w.Link(), targets, p)
		got, err := coord.Run(context.Background(), workers, targets, p)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			select {
			case <-s.held:
			default:
				t.Fatal("the straggler was never leased a shard")
			}
			if got.Reassigned == 0 {
				t.Fatal("the straggler's lease never expired")
			}
		}
		assertIdentical(t, fmt.Sprintf("run %d (%v)", i, p), got, wantRes, wantStats)
	}
	close(s.release)
	if err := <-s.checked; err != nil {
		t.Fatal(err)
	}
}

// TestLocalWorkerWritesDstInPlace: a localWorker appends a shard's
// results to Shard.dst[:0], batch after batch in the lease buffer's own
// memory when it has room, with the results of a worker given none.
func TestLocalWorkerWritesDstInPlace(t *testing.T) {
	w := clusterWorld(t)
	plan := scanner.PlanOrder(nil, testSecret, true, testTargets(t, w), proto.TCP80)[:700]
	job := Job{proto: proto.TCP80}
	want, err := testWorker(w, "fresh").RunShard(context.Background(), job, Shard{id: 5, targets: plan}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}

	dst := make([]scanner.Result, 3, len(plan)) // stale entries from an earlier lease
	got, err := testWorker(w, "lent").RunShard(context.Background(), job, Shard{id: 5, targets: plan, dst: dst}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) <= localBatch {
		t.Fatalf("the shard fits one batch of %d; the test needs several", localBatch)
	}
	if &got.results[0] != &dst[0] {
		t.Fatal("the worker did not write into a Dst with room for the shard")
	}
	if !slices.Equal(got.results, want.results) || got.stats.Values() != want.stats.Values() {
		t.Fatal("results written into Dst differ from results the worker allocated")
	}
}

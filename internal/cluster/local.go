package cluster

import (
	"context"
	"slices"
	"sync"
	"time"

	"seedscan/internal/scanner"
)

// localBatch is how many shard targets a LocalWorker scans between
// heartbeats. Small enough that lease revocation and kill-switch tests
// land promptly, large enough that the scanner's batched hot path stays
// amortized.
const localBatch = 512

// LocalWorker runs shards on an in-process scanner — the worker flavour
// deterministic tests and cmd/experiments fan-out use. The scanner must
// replicate the coordinator's reference configuration (same secret, link,
// retries, rate) for byte-identical merges; NewLocalPool guarantees that.
//
// A LocalWorker models one probing host: it owns one scanner and executes
// one shard at a time (the mutex), which is also what makes its
// snapshot-delta stats exact.
type LocalWorker struct {
	id    string
	s     *scanner.Scanner
	batch int

	mu sync.Mutex

	// failHook, when set, is consulted between heartbeat batches; a
	// non-nil error simulates the worker crashing mid-shard. Tests only.
	failHook func(done int) error
}

// NewLocalWorker wraps s as a cluster worker.
func NewLocalWorker(id string, s *scanner.Scanner) *LocalWorker {
	return &LocalWorker{id: id, s: s, batch: localBatch}
}

// ID implements Worker.
func (w *LocalWorker) ID() string { return w.id }

// RunShard implements Worker: it probes the shard's targets as given, in
// heartbeat-sized batches each appended in place into one shard slice —
// shard.Dst when it has room, else one sized for the shard — and returns
// one result per target in target order with the shard's exact stats
// delta.
func (w *LocalWorker) RunShard(ctx context.Context, job Job, shard Shard, beat func(done int)) (*ShardResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	before := w.s.Stats()
	results := slices.Grow(shard.Dst[:0], len(shard.Targets))
	for off := 0; off < len(shard.Targets); off += w.batch {
		if w.failHook != nil {
			if err := w.failHook(len(results)); err != nil {
				return nil, err
			}
		}
		end := min(off+w.batch, len(shard.Targets))
		var err error
		results, err = w.s.ScanPlanned(ctx, results, shard.Targets[off:end], job.Proto)
		if err != nil {
			return nil, err
		}
		beat(len(results))
	}
	delta := w.s.Stats()
	delta.Sub(before)
	return &ShardResult{
		Shard:       shard.ID,
		Results:     results,
		Stats:       delta,
		WallSeconds: time.Since(start).Seconds(),
	}, nil
}

package cluster

import (
	"context"
	"slices"
	"sync"
	"time"

	"seedscan/internal/scanner"
)

// localBatch is how many shard targets a localWorker scans between
// heartbeats. Small enough that lease revocation and kill-switch tests
// land promptly, large enough that the scanner's batched hot path stays
// amortized.
const localBatch = 512

// localWorker runs shards on an in-process scanner — the worker flavour
// deterministic tests and cmd/experiments fan-out use. The scanner must
// replicate the coordinator's reference configuration (same secret, link,
// retries, rate) for byte-identical merges; NewLocalPool guarantees that.
//
// A localWorker models one probing host: it owns one scanner and executes
// one shard at a time (the mutex), which is also what makes its
// snapshot-delta stats exact.
type localWorker struct {
	id    string
	s     *scanner.Scanner
	batch int

	mu sync.Mutex

	// failHook, when set, is consulted between heartbeat batches; a
	// non-nil error simulates the worker crashing mid-shard. Tests only.
	failHook func(done int) error
}

// newLocalWorker wraps s as a cluster worker.
func newLocalWorker(id string, s *scanner.Scanner) *localWorker {
	return &localWorker{id: id, s: s, batch: localBatch}
}

// ID implements Worker.
func (w *localWorker) ID() string { return w.id }

// RunShard implements Worker: it probes the shard's targets as given, in
// heartbeat-sized batches each appended in place into one shard slice —
// shard.dst when it has room, else one sized for the shard — and returns
// one result per target in target order with the shard's exact stats
// delta.
func (w *localWorker) RunShard(ctx context.Context, job Job, shard Shard, beat func(done int)) (*ShardResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	before := w.s.Stats()
	results := slices.Grow(shard.dst[:0], len(shard.targets))
	for off := 0; off < len(shard.targets); off += w.batch {
		if w.failHook != nil {
			if err := w.failHook(len(results)); err != nil {
				return nil, err
			}
		}
		end := min(off+w.batch, len(shard.targets))
		var err error
		results, err = w.s.ScanPlanned(ctx, results, shard.targets[off:end], job.proto)
		if err != nil {
			return nil, err
		}
		beat(len(results))
	}
	delta := w.s.Stats()
	delta.Sub(before)
	return &ShardResult{
		shard:       shard.id,
		results:     results,
		stats:       delta,
		wallSeconds: time.Since(start).Seconds(),
	}, nil
}

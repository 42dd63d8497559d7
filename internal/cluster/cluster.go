// Package cluster distributes one scan across many in-process workers
// while keeping the outcome indistinguishable from a single-scanner run.
//
// A coordinator plans the scan once — the deduplicated, secret-shuffled
// canonical order scanner.PlanOrder computes — cuts that order into
// consecutive shardSize-wide windows, leases the windows to workers, and
// writes each shard's results and stats back by position into one
// scanner.Result slice and one Stats snapshot that are byte-identical to
// probing everything through one scanner. Identity holds because
// per-target classification is a pure function of (target, secret, world
// replies): neither which worker probes an address nor when changes its
// outcome, so scheduling is a free variable the coordinator exploits for
// parallelism and fault tolerance.
//
// NewLocalPool builds the workers: each a localWorker running its own
// scanner over one shared link, behind the worker interface the tests'
// failing fakes also implement.
//
// Robustness is part of the contract, not an afterthought: every lease has
// a deadline refreshed by heartbeats; a crashed or hung worker's shard is
// reassigned and the run still converges to the identical merged result;
// the number of leased shards is bounded for backpressure; and the
// coordinator reports per-worker telemetry (shards leased / completed /
// reassigned, in-flight gauge, per-worker pps) through internal/telemetry.
package cluster

import (
	"context"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// shard is one leased unit of work: a window of the canonical target
// order, to be probed exactly as given (scanner.ScanPlanned). Both slices
// are the coordinator's, lent to the worker until RunShard returns.
type shard struct {
	id      int
	targets []ipaddr.Addr
	// dst is the lease's result buffer, with room for every target: a
	// worker appends its results to dst[:0], so they are written in
	// place. nil means none.
	dst []scanner.Result
}

// shardResult is a completed shard: one scanner result per shard target,
// in shard-target order (results[j].Addr == shard.targets[j] — the
// coordinator verifies the echo and merges by position), plus the stats
// delta this shard alone contributed.
type shardResult struct {
	shard   int
	results []scanner.Result
	// stats is the shard's own counter contribution (snapshot delta on
	// the worker's scanner).
	stats *scanner.Stats
	// wallSeconds is the worker-side wall-clock cost of the shard, the
	// denominator of the per-worker pps gauge.
	wallSeconds float64
}

// worker executes shard scans for a coordinator. Implementations return
// one result per shard target, in shard-target order, and must call beat
// (with the number of targets finished so far) more often than the lease
// timeout while making progress, or the coordinator will expire the lease
// and reassign the shard. RunShard must honour ctx cancellation: once the
// lease is revoked the coordinator has stopped waiting.
type worker interface {
	ID() string
	RunShard(ctx context.Context, p proto.Protocol, sh shard, beat func(done int)) (*shardResult, error)
}

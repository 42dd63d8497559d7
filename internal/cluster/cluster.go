// Package cluster distributes one scan across many workers while keeping
// the outcome indistinguishable from a single-scanner run.
//
// A Coordinator plans the scan once — the deduplicated, secret-shuffled
// canonical order scanner.PlanOrder computes — cuts that order into
// consecutive ShardSize-wide windows, leases the windows to workers, and
// writes each shard's results and stats back by position into one
// scanner.Result slice and one Stats snapshot that are byte-identical to
// probing everything through one scanner. Identity holds because
// per-target classification is a pure function of (target, secret, world
// replies): neither which worker probes an address nor when changes its
// outcome, so scheduling is a free variable the coordinator exploits for
// parallelism and fault tolerance.
//
// Workers come in two flavours behind the same Worker interface:
// LocalWorker runs a scanner in-process (deterministic tests,
// cmd/experiments fan-out), and RemoteWorker speaks a length-prefixed
// binary protocol over TCP to a `seedscan worker` process (see wire.go).
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
	"slices"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
)

// Job carries the scan parameters every shard of one run shares. Remote
// workers build their scanner from it; the coordinator derives it from its
// Config so worker scanners replicate the reference single scanner (same
// secret, retries, rate and wire chain — the world's replies depend on
// cookie-derived fields, so a mismatched secret would change outcomes).
type Job struct {
	Proto   proto.Protocol
	Secret  uint64
	Retries int
	RatePPS int
	// HeartbeatEvery is how often a worker must beat while holding a
	// lease; the coordinator sets it well below the lease timeout.
	HeartbeatEvery time.Duration
	// Chain is the wire chain every probe crosses, as the canonical text
	// of a wire.ChainConfig (a string, so Job stays comparable).
	Chain string
}

// jobScanner builds a worker scanner over link (the job's chain already
// composed onto it) that replicates the job's reference scanner: opts
// first, then the job's secret, retries and rate, so no option can break
// the identity.
func jobScanner(link wire.Link, job Job, opts []scanner.Option) *scanner.Scanner {
	return scanner.New(link, append(slices.Clone(opts),
		scanner.WithSecret(job.Secret),
		scanner.WithRetries(job.Retries),
		scanner.WithRatePPS(job.RatePPS))...)
}

// Shard is one leased unit of work: a window of the canonical target
// order, to be probed exactly as given (scanner.ScanPlanned). Both slices
// are the coordinator's, lent to the worker until RunShard returns.
type Shard struct {
	ID      int
	Targets []ipaddr.Addr
	// Dst is the lease's result buffer, with room for every target: a
	// worker appends its results to Dst[:0], so they are written in
	// place. It never travels on the wire; nil means none.
	Dst []scanner.Result
}

// ShardResult is a completed shard: one scanner result per shard target,
// in shard-target order (Results[j].Addr == Shard.Targets[j] — the
// coordinator verifies the echo and merges by position), plus the stats
// delta this shard alone contributed.
type ShardResult struct {
	Shard   int
	Results []scanner.Result
	// Stats is the shard's own counter contribution (snapshot delta on
	// the worker's scanner).
	Stats *scanner.Stats
	// WallSeconds is the worker-side wall-clock cost of the shard, the
	// denominator of the per-worker pps gauge.
	WallSeconds float64
}

// Worker executes shard scans for a coordinator. Implementations return
// one result per shard target, in shard-target order, and must call
// beat (with the number of targets finished so far) at least once per
// Job.HeartbeatEvery while making progress, or the coordinator will expire
// the lease and reassign the shard. RunShard must honour ctx cancellation:
// once the lease is revoked the coordinator has stopped waiting.
type Worker interface {
	ID() string
	RunShard(ctx context.Context, job Job, shard Shard, beat func(done int)) (*ShardResult, error)
}

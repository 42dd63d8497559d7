// Package cluster distributes one scan across many workers while keeping
// the outcome indistinguishable from a single-scanner run.
//
// A Coordinator hash-partitions the scan's canonical target order (the
// deduplicated, secret-shuffled order scanner.PlanOrder computes) into
// shards, leases shards to workers, and merges the per-shard results and
// stats back into one scanner.Result slice and one Stats snapshot that are
// byte-identical to probing everything through one scanner. Identity holds
// because per-target classification is a pure function of (target, secret,
// world replies): neither which worker probes an address nor in what order
// changes its outcome, so shard membership and scheduling are free
// variables the coordinator exploits for parallelism and fault tolerance.
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
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// Job carries the scan parameters every shard of one run shares. Remote
// workers build their scanner from it; the coordinator derives it from its
// Config so worker scanners replicate the reference single scanner (same
// secret, retries, and rate — the world's replies depend on cookie-derived
// fields, so a mismatched secret would change outcomes).
type Job struct {
	Proto   proto.Protocol
	Secret  uint64
	Retries int
	RatePPS int
	// HeartbeatEvery is how often a worker must beat while holding a
	// lease; the coordinator sets it well below the lease timeout.
	HeartbeatEvery time.Duration
}

// Shard is one leased unit of work: a subset of the canonical target list.
type Shard struct {
	ID      int
	Targets []ipaddr.Addr
}

// ShardResult is a completed shard: one scanner result per shard target
// (in whatever order the worker probed them — the coordinator re-keys by
// address) plus the stats delta this shard alone contributed.
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

// Worker executes shard scans for a coordinator. Implementations must call
// beat (with the number of targets finished so far) at least once per
// Job.HeartbeatEvery while making progress, or the coordinator will expire
// the lease and reassign the shard. RunShard must honour ctx cancellation:
// once the lease is revoked the coordinator has stopped waiting.
type Worker interface {
	ID() string
	RunShard(ctx context.Context, job Job, shard Shard, beat func(done int)) (*ShardResult, error)
}

// Partition hash-partitions targets into shards of roughly shardSize
// addresses. The shard an address lands in is a pure function of the
// address and the shard count — independent of the order targets arrive
// in — so any two runs over the same target set produce the same shards.
func Partition(targets []ipaddr.Addr, shardSize int) []Shard {
	if shardSize < 1 {
		shardSize = 1
	}
	n := (len(targets) + shardSize - 1) / shardSize
	if n == 0 {
		return nil
	}
	shards := make([]Shard, n)
	for i := range shards {
		shards[i].ID = i
		shards[i].Targets = make([]ipaddr.Addr, 0, shardSize+shardSize/4)
	}
	for _, a := range targets {
		i := int(mix64(a.Hi(), a.Lo()) % uint64(n))
		shards[i].Targets = append(shards[i].Targets, a)
	}
	return shards
}

// mix64 finalizes each value with splitmix64 and folds the results with
// xor-multiply. It is not ipaddr.Mix64 (which chains the finalizer through
// the running hash), and shard assignment is pinned to it.
func mix64(vals ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		v += 0x9e3779b97f4a7c15
		v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
		v = (v ^ v>>27) * 0x94d049bb133111eb
		h ^= v ^ v>>31
		h *= 0x9e3779b97f4a7c15
	}
	return h
}

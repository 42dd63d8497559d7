package scanner

import (
	"math"

	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
)

// Option configures a Scanner at construction time. Every setting is
// explicit, so WithRetries(0) genuinely means "probe once, no retry".
type Option func(*settings)

// settings is the resolved configuration an option set produces.
type settings struct {
	retries   int
	workers   int
	ratePPS   int
	chunk     int
	blocklist *ipaddr.LPMTable // nil without WithBlocklist
	secret    uint64
	shuffle   bool
	tele      *telemetry.Registry
}

// sourceAddr is the address every probe is sent from.
var sourceAddr = ipaddr.MustParse("2001:db8:5ca0::1")

// defaultChunk is the number of targets a worker claims, and probes per
// exchange, per loop iteration. Large enough to amortize
// claim/rate-limit/counter updates, small enough that cancellation still
// lands promptly and tail chunks stay balanced.
const defaultChunk = 64

// maxWorkers caps WithWorkers: each worker slot holds a 128-byte counter
// shard for the scanner's lifetime, so the cap bounds that table at
// 128 KiB.
const maxWorkers = 1024

// defaultSettings mirrors §4.2 of the paper: 2 retries (3 packets total),
// 8 workers, the 10k pps ethical rate cap, shuffled scan order.
func defaultSettings() settings {
	return settings{
		retries: 2,
		workers: 8,
		ratePPS: 10000,
		chunk:   defaultChunk,
		shuffle: true,
	}
}

// WithRetries sets the number of additional attempts after the first probe
// goes unanswered. Zero means probe exactly once. Values clamp to
// 0..254, so the attempt count (at most 255) fits Result.Attempts, the
// byte the cluster wire carries.
func WithRetries(n int) Option {
	return func(s *settings) { s.retries = min(max(n, 0), math.MaxUint8-1) }
}

// WithWorkers sets the number of concurrent probe workers. Values clamp
// to 1..1024 (maxWorkers); a scan starts no more workers than it has
// chunks of targets to claim.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = min(max(n, 1), maxWorkers) }
}

// WithRatePPS caps the aggregate probe rate on the virtual clock
// (minimum 1 pps).
func WithRatePPS(pps int) Option {
	return func(s *settings) {
		if pps < 1 {
			pps = 1
		}
		s.ratePPS = pps
	}
}

// WithBlocklist installs prefixes that must never be probed.
func WithBlocklist(prefixes []ipaddr.Prefix) Option {
	return func(s *settings) { s.blocklist = ipaddr.BuildLPM(prefixes, nil, 0) }
}

// blocked reports whether a falls in a blocklisted prefix.
func (s *settings) blocked(a ipaddr.Addr) bool {
	if s.blocklist == nil {
		return false
	}
	_, ok := s.blocklist.Lookup(a)
	return ok
}

// WithSecret keys the validation cookies and the scan-order shuffle.
func WithSecret(secret uint64) Option {
	return func(s *settings) { s.secret = secret }
}

// WithTelemetry wires a metrics registry into the scanner: per-protocol
// probe/retry/hit counters, cookie-failure counts, and rate-limiter
// accounting. A nil registry is accepted and leaves telemetry off.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *settings) { s.tele = reg }
}

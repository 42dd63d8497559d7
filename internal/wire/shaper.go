package wire

import (
	"math"
	"sync/atomic"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/telemetry"
)

// shaper shapes the probe departure schedule on a virtual clock, the same
// accounting idiom as the scanner's own rateLimiter: instead of sleeping
// it advances simulated time by one inter-packet gap per probe, plus
// optional seeded jitter, so shaped experiments still run at full speed
// while wire.shaper.virtual_ns reports what the shaped scan would cost on
// real hardware. Layer one under a scanner whose own limiter models the
// ethical aggregate cap to ask "what if the wire itself were slower or
// burstier?".
//
// Jitter draws one deterministic extra delay per exchange batch — a
// fraction of the gap in [0, jitter·gap) keyed by (seed, batch ordinal) —
// mimicking per-burst scheduling noise without breaking reproducibility.
//
// Telemetry: wire.shaper.packets, and wire.shaper.virtual_ns, the virtual
// egress time in nanoseconds (both summed over every shaper on the
// registry).
type shaper struct {
	gap     float64
	jitter  float64
	seed    uint64
	batches atomic.Int64 // exchange batches seen (the jitter key)

	cPackets   *telemetry.Counter
	cVirtualNs *telemetry.Counter
}

// newShaper builds the shaper c describes, mirroring its counters — its
// only output — into reg (nil: off).
func newShaper(c ShapeConfig, reg *telemetry.Registry) *shaper {
	return &shaper{
		gap:        1 / float64(max(c.PPS, 1)),
		jitter:     max(c.Jitter, 0),
		seed:       c.Seed,
		cPackets:   reg.Counter("wire.shaper.packets"),
		cVirtualNs: reg.Counter("wire.shaper.virtual_ns"),
	}
}

// Wrap implements Middleware. The shaper only accounts time; packets and
// replies pass through untouched, so a shaped chain is byte-identical to
// an unshaped one.
func (s *shaper) Wrap(next Link) Link {
	return LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) {
		elapsed := float64(len(pkts)) * s.gap
		if s.jitter > 0 {
			batch := uint64(s.batches.Add(1) - 1)
			elapsed += float64(ipaddr.Mix64(s.seed, batch)>>11) / (1 << 53) * s.jitter * s.gap
		}
		s.cPackets.Add(int64(len(pkts)))
		s.cVirtualNs.Add(int64(math.Round(elapsed * 1e9)))
		next.ExchangeBatchInto(pkts, rb)
	})
}

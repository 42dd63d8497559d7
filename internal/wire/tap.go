package wire

import (
	"sync/atomic"

	"seedscan/internal/probe"
	"seedscan/internal/telemetry"
)

// TapFunc observes one probe/reply pair. reply is nil when the probe drew
// no answer. The slices alias the scanner's and link's reusable buffers:
// the function may read them during the call but must not retain them, and
// it must be safe for concurrent use — every scanner worker flows through
// the same tap.
type TapFunc func(pkt, reply []byte)

// Tap is the observe-everything middleware: it counts — and optionally
// hands to a TapFunc — every probe/reply pair crossing the link without
// touching either, so a tapped chain stays byte-identical to an untapped
// one. It is the building block for telescope-style studies (what does a
// passive observer on the wire see of a scan?) per ROADMAP item 5.
//
// Telemetry: wire.tap.probes, wire.tap.replies.
type Tap struct {
	fn     TapFunc
	probes atomic.Int64

	cProbes  *telemetry.Counter
	cReplies *telemetry.Counter
}

// NewTap builds a tap. fn may be nil for a count-only tap.
func NewTap(fn TapFunc) *Tap { return newTap(fn, nil) }

// newTap builds a tap mirroring its counters into reg (nil: off).
func newTap(fn TapFunc, reg *telemetry.Registry) *Tap {
	return &Tap{fn: fn, cProbes: reg.Counter("wire.tap.probes"), cReplies: reg.Counter("wire.tap.replies")}
}

// Probes returns how many probes have crossed the tap.
func (t *Tap) Probes() int64 { return t.probes.Load() }

// Wrap implements Middleware.
func (t *Tap) Wrap(next Link) Link {
	return LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) {
		next.ExchangeBatchInto(pkts, rb)
		n := int64(len(pkts))
		var answered int64
		for i := range pkts {
			r := rb.Reply(i)
			if r != nil {
				answered++
			}
			if t.fn != nil {
				t.fn(pkts[i], r)
			}
		}
		t.probes.Add(n)
		t.cProbes.Add(n)
		t.cReplies.Add(answered)
	})
}

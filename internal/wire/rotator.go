package wire

import (
	"sync"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/telemetry"
)

// sourceRotator rewrites each outgoing probe's source address across a
// fixed pool — modelling a scanner that originates from many addresses of
// its own prefix, a standard operational setup for large measurement
// campaigns. The vantage for a probe is a deterministic function of
// (seed, destination), so every retry to the same target leaves from the
// same pool address and runs reproduce exactly.
//
// Replies are NAT-ed back: the rotator rewrites each reply's destination
// (in place, inside the reply arena) to the scanner's original source, so
// validation and classification behave as if the rotation never happened —
// a rotated chain's scan results are byte-identical to an unrotated one.
// Checksums are recomputed on both rewrites; see probe.RewriteSrc.
// ChainConfig.Rotate builds one.
//
// Telemetry: wire.rotator.rewrites.
type sourceRotator struct {
	pool []ipaddr.Addr // not empty
	seed uint64

	scratch   sync.Pool // *rotatorScratch
	cRewrites *telemetry.Counter
}

// rotatorScratch is the per-exchange buffer set: rewritten probe copies in
// one arena plus each probe's original source for the reply NAT.
type rotatorScratch struct {
	arena []byte
	ends  []int
	out   [][]byte
	orig  []ipaddr.Addr
}

// SetTelemetry mirrors the rotator's counters into reg under wire.rotator.*.
func (r *sourceRotator) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.cRewrites = reg.Counter("wire.rotator.rewrites")
}

// pick selects the pool vantage for a probe to dst.
func (r *sourceRotator) pick(dst ipaddr.Addr) ipaddr.Addr {
	return r.pool[wiremix(r.seed, dst.Hi(), dst.Lo())%uint64(len(r.pool))]
}

// Wrap implements Middleware.
func (r *sourceRotator) Wrap(next Link) Link {
	return LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) {
		st, _ := r.scratch.Get().(*rotatorScratch)
		if st == nil {
			st = &rotatorScratch{}
		}
		// Copy every probe into the scratch arena (the caller's buffers
		// must stay untouched), then rewrite each copy's source. Build
		// first, slice after: the arena may move while growing.
		st.arena = st.arena[:0]
		st.ends = st.ends[:0]
		st.orig = st.orig[:0]
		for _, pkt := range pkts {
			st.arena = append(st.arena, pkt...)
			st.ends = append(st.ends, len(st.arena))
		}
		st.out = st.out[:0]
		prev := 0
		for _, end := range st.ends {
			cp := st.arena[prev:end]
			prev = end
			st.out = append(st.out, cp)
			var orig, dst ipaddr.Addr
			if len(cp) >= probe.IPv6HeaderLen {
				var sb, db [16]byte
				copy(sb[:], cp[8:24])
				copy(db[:], cp[24:40])
				orig, dst = ipaddr.AddrFrom16(sb), ipaddr.AddrFrom16(db)
				if err := probe.RewriteSrc(cp, r.pick(dst)); err == nil {
					r.cRewrites.Inc()
				}
			}
			st.orig = append(st.orig, orig)
		}

		next.ExchangeBatchInto(st.out, rb)

		// NAT the replies back: whatever answered the rotated source is
		// rewritten to target the scanner's original source so cookie
		// validation sees the packet it expects.
		for i := range st.out {
			if reply := rb.Reply(i); reply != nil && !st.orig[i].IsZero() {
				_ = probe.RewriteDst(reply, st.orig[i])
			}
		}
		r.scratch.Put(st)
	})
}

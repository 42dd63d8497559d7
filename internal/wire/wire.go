// Package wire is the canonical packet transport of the stack: every
// subsystem that moves probes — the scanner, the simulated world, cluster
// workers, the longitudinal daemon — exchanges packets through exactly one
// interface, Link, and anything that wants to observe or shape traffic in
// flight composes onto it as a Middleware via Chain.
//
// Link is arena-batched: one call exchanges a whole chunk of probes and
// answers into a caller-owned probe.ReplyBuf, at most one reply per probe,
// so the steady-state exchange allocates nothing on either side. LinkFunc
// adapts a function, which is how tests write fake links.
//
// Middlewares wrap a Link with a send-side hook (they see — and may
// rewrite, reorder, or drop — every probe before the inner link does) and
// an observe-side hook (they see every reply before the scanner does).
// The package ships four: Tap (record probe/reply pairs untouched — the
// telescope building block), Shaper (virtual-clock rate shaping and
// jitter), sourceRotator (rotate probe sources across an address pool),
// and Faults (deterministic seeded loss / duplication / reply delay).
// All are safe for concurrent use by many scanner workers.
//
// ChainConfig describes a chain of the four as a value with a canonical
// text form, which CLI flags, cluster job frames and fingerprints share.
//
// Telemetry: middlewares wired to a registry expose counters under the
// wire.* namespace — wire.tap.probes, wire.tap.replies,
// wire.shaper.packets, wire.shaper.virtual_ns, wire.rotator.rewrites,
// wire.faults.dropped, wire.faults.duplicated, wire.faults.delayed.
package wire

import "seedscan/internal/probe"

// Link is the canonical wire between a scanner and the Internet (real or
// simulated): one call exchanges a batch of packets, answering each into
// the caller-owned rb. Implementations must rb.Reset(len(pkts)) first,
// then record at most one reply per packet; replies alias rb's arena and
// are consumed before the caller's next exchange into the same buffer.
//
// Implementations must be safe for concurrent use and must not retain
// pkts or its packets past the call — the scanner reuses probe buffers.
type Link interface {
	ExchangeBatchInto(pkts [][]byte, rb *probe.ReplyBuf)
}

// LinkFunc adapts a function to Link.
type LinkFunc func(pkts [][]byte, rb *probe.ReplyBuf)

// ExchangeBatchInto calls f.
func (f LinkFunc) ExchangeBatchInto(pkts [][]byte, rb *probe.ReplyBuf) { f(pkts, rb) }

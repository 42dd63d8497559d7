package wire

// Middleware wraps a Link with behavior on the send side (probes flowing
// down to the wire) and/or the observe side (replies flowing back up).
//
// The contract a Wrap result must honour:
//
//   - Pass-through middlewares (Tap, Shaper, sourceRotator) forward the
//     caller's pkts and rb to the inner link and must NOT Reset rb — the
//     innermost link resets it, exactly as the scanner expects from a bare
//     link. They may rewrite probe bytes before forwarding (into their own
//     scratch, never in the caller's buffers) and reply bytes in place
//     after the inner exchange returns.
//   - Filtering middlewares (Faults) that forward a different packet set
//     exchange through their own scratch ReplyBuf, then Reset the caller's
//     rb themselves and copy the surviving replies back by original index.
//   - Either way the middleware must be safe for concurrent use — scanner
//     workers share one chain — and must not retain pkts, replies, or rb
//     past the call.
type Middleware interface {
	// Wrap returns a Link that forwards to next. Wrap is called once at
	// chain-build time; the returned Link carries the per-exchange logic.
	Wrap(next Link) Link
}

// Chain composes middlewares onto base. mws[0] is the outermost layer —
// closest to the scanner, first to see probes and last to see replies —
// and mws[len-1] sits directly on base. Nil entries are skipped. An empty
// chain returns base itself: no wrapper, no overhead, byte-identical
// behavior to handing the scanner the bare link.
func Chain(base Link, mws ...Middleware) Link {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] == nil {
			continue
		}
		base = mws[i].Wrap(base)
	}
	return base
}

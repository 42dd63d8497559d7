package world

import "seedscan/internal/probe"

// WireLink adapts the world to the canonical wire.Link: every batch of
// packets sent is handled synchronously by the responder, and the replies
// come back in the caller-owned arena. It is the in-process stand-in for a
// raw socket. Compose observers onto it with wire.Chain.
type WireLink struct {
	w *World
}

// Link returns the world's wire.
func (w *World) Link() *WireLink { return &WireLink{w: w} }

// ExchangeBatchInto implements wire.Link: the whole batch is answered into
// the caller-owned rb with no per-packet allocation. Replies alias rb's
// arena and are valid until its next Reset.
func (l *WireLink) ExchangeBatchInto(pkts [][]byte, rb *probe.ReplyBuf) {
	l.w.handleBatch(pkts, rb)
}

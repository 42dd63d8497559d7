package world

import (
	"encoding/binary"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
)

// handleBatch is the world's batched network interface: it receives a batch
// of raw IPv6 probes and records at most one raw reply per probe into the
// caller-owned rb, exactly as the live Internet would answer Scanv6 probes.
// Replies include Echo Replies, SYN-ACKs, RSTs (closed ports on live
// hosts), DNS responses, and ICMP Destination Unreachables from region
// routers; per the paper's methodology the scanner counts only the first
// three kinds of positive response as hits.
//
// Loss and rate limiting are deterministic functions of each probe's
// destination and its varying cookie field, so retries genuinely re-roll,
// and a batch of N answers exactly as N batches of one. rb is reset to the
// batch size; replies alias its arena and stay valid until its next Reset.
// handleBatch is safe for concurrent use as long as each concurrent caller
// owns its rb.
func (w *World) handleBatch(pkts [][]byte, rb *probe.ReplyBuf) {
	rb.Reset(len(pkts))
	replies := 0
	for i, pkt := range pkts {
		if w.handleInto(pkt, rb, i) {
			replies++
		}
	}
	if t := w.tele.Load(); t != nil {
		t.batches.Inc()
		t.batchPackets.Add(int64(len(pkts)))
		t.batchReplies.Add(int64(replies))
	}
}

// handleInto answers pkts[i] into rb, reporting whether a reply was
// recorded. Routing runs before parsing: the destination comes straight
// off the fixed IPv6 header, so probes into unrouted space (the common case
// in brute-force scans) never pay for L4 parsing or checksum verification.
func (w *World) handleInto(pkt []byte, rb *probe.ReplyBuf, i int) bool {
	if len(pkt) < probe.IPv6HeaderLen {
		return false // the Internet silently drops malformed probes
	}
	dst := ipaddr.AddrFrom64s(
		binary.BigEndian.Uint64(pkt[24:32]),
		binary.BigEndian.Uint64(pkt[32:40]),
	)
	r, ok := w.RegionOf(dst)
	if !ok {
		return false // unrouted: silence
	}
	p, err := probe.Parse(pkt)
	if err != nil {
		return false
	}
	epoch := w.Epoch()

	switch p.Kind {
	case probe.KindEchoRequest:
		return w.answerEcho(&p, r, dst, epoch, pkt, rb, i)
	case probe.KindTCPSyn:
		return w.answerSyn(&p, r, dst, epoch, pkt, rb, i)
	case probe.KindDNSQuery:
		return w.answerDNS(&p, r, dst, epoch, pkt, rb, i)
	}
	return false
}

// delivered applies transit loss and the region's response rate. The vary
// value must change across retries (the scanner varies its cookie field).
func (w *World) delivered(r *Region, dst ipaddr.Addr, pr proto.Protocol, vary uint64) bool {
	if unit(w.hash(tagLoss, dst.Hi(), dst.Lo(), uint64(pr), vary)) < w.lossRate {
		return false
	}
	if r.RespRate < 1 &&
		unit(w.hash(tagRate, dst.Hi(), dst.Lo(), uint64(pr), vary)) >= r.RespRate {
		return false
	}
	return true
}

// The answer functions draw the destination's existence at most once per
// probe, after delivery, and hand it to every decision that needs it.

func (w *World) answerEcho(p *probe.Packet, r *Region, dst ipaddr.Addr, epoch int, raw []byte, rb *probe.ReplyBuf, i int) bool {
	if !w.delivered(r, dst, proto.ICMP, uint64(p.EchoSeq)) {
		return false
	}
	exists := w.existsAt(dst, r, epoch)
	if w.listens(dst, r, proto.ICMP, exists) {
		rb.PutEchoReply(i, dst, p.Header.Src, p.EchoID, p.EchoSeq, p.Payload)
		return true
	}
	if !exists && unit(w.hash(tagUnreach, dst.Hi(), dst.Lo())) < r.SendsUnreach {
		rb.PutUnreachable(i, r.routerAddr(), p.Header.Src, probe.UnreachAddr, raw)
		return true
	}
	return false
}

func (w *World) answerSyn(p *probe.Packet, r *Region, dst ipaddr.Addr, epoch int, raw []byte, rb *probe.ReplyBuf, i int) bool {
	var pr proto.Protocol
	switch p.DstPort {
	case 80:
		pr = proto.TCP80
	case 443:
		pr = proto.TCP443
	default:
		// Port outside the study: a live host may RST, otherwise silence.
		if w.existsAt(dst, r, epoch) &&
			unit(w.hash(tagRST, dst.Hi(), dst.Lo(), uint64(p.DstPort))) < r.sendsRST {
			rb.PutTCPRst(i, dst, p.Header.Src, p.DstPort, p.SrcPort, 0, p.TCPSeq+1)
			return true
		}
		return false
	}
	if !w.delivered(r, dst, pr, uint64(p.TCPSeq)) {
		return false
	}
	exists := w.existsAt(dst, r, epoch)
	if w.listens(dst, r, pr, exists) {
		seq := uint32(w.hash(tagTCPSeq, dst.Hi(), dst.Lo(), uint64(p.TCPSeq)))
		rb.PutTCPSynAck(i, dst, p.Header.Src, p.DstPort, p.SrcPort, seq, p.TCPSeq+1)
		return true
	}
	if exists {
		// Live host, closed port: RST per the region's firewalling habits.
		if unit(w.hash(tagRST, dst.Hi(), dst.Lo(), uint64(p.DstPort))) < r.sendsRST {
			rb.PutTCPRst(i, dst, p.Header.Src, p.DstPort, p.SrcPort, 0, p.TCPSeq+1)
			return true
		}
		return false
	}
	if unit(w.hash(tagUnreach, dst.Hi(), dst.Lo())) < r.SendsUnreach {
		rb.PutUnreachable(i, r.routerAddr(), p.Header.Src, probe.UnreachAddr, raw)
		return true
	}
	return false
}

func (w *World) answerDNS(p *probe.Packet, r *Region, dst ipaddr.Addr, epoch int, raw []byte, rb *probe.ReplyBuf, i int) bool {
	if p.DstPort != 53 {
		return false
	}
	if !w.delivered(r, dst, proto.UDP53, uint64(p.DNSID)) {
		return false
	}
	exists := w.existsAt(dst, r, epoch)
	if w.listens(dst, r, proto.UDP53, exists) {
		rb.PutDNSResponse(i, dst, p.Header.Src, p.SrcPort, p.DNSID, p.Payload)
		return true
	}
	if exists && unit(w.hash(tagUnreach, dst.Hi(), dst.Lo(), uint64(p.DstPort))) < r.SendsUnreach {
		// Live host without a resolver: ICMP port unreachable from the host.
		rb.PutUnreachable(i, dst, p.Header.Src, probe.UnreachPort, raw)
		return true
	}
	return false
}

// Package scanner reimplements Scanv6, the Go scanner the paper uses for
// all TGA output scans (§4.2): it takes lists of IPv6 targets, emits
// ICMPv6 Echo / TCP SYN / UDP DNS probes with validation cookies, honours a
// blocklist, rate-limits, retries unanswered targets, verifies every
// response packet, and classifies outcomes.
//
// Following §4.1 of the paper, TCP RSTs and ICMP Destination Unreachable
// messages are NOT counted as hits — they prove a router or host exists but
// not that the probed service does.
//
// Scanners are built with functional options (New plus WithRetries,
// WithWorkers, WithRatePPS, WithBlocklist, WithTelemetry, ...) and scans
// are cancellable through ScanContext; Scan remains as a context-free
// wrapper.
//
// The per-packet hot path is contention-free: the rate limiter is an
// atomic virtual clock (no mutex), counters are sharded per worker and
// merged on read, probes are built into reused per-worker scratch buffers,
// and every exchange moves a whole chunk of probes through the canonical
// arena-batched wire.Link, which answers into a per-worker reply arena —
// the steady-state exchange loop is allocation-free on both sides.
//
// The scanner exchanges packets exclusively through internal/wire: New
// takes a wire.Link (compose middlewares onto it with wire.Chain).
package scanner

import (
	"context"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// dnsQueryName is the fixed liveness qname stamped on UDP/53 probes.
const dnsQueryName = "liveness.seedscan.example"

// Status classifies the outcome of probing one target.
type Status uint8

const (
	// StatusSilent means no response survived retries.
	StatusSilent Status = iota
	// StatusActive means a validated positive response (Echo Reply,
	// SYN-ACK, or DNS response) arrived: a hit.
	StatusActive
	// StatusRST means the host answered a TCP probe with RST: alive but
	// closed; not a hit.
	StatusRST
	// StatusUnreachable means a router answered with ICMPv6 Destination
	// Unreachable; not a hit.
	StatusUnreachable
	// StatusBlocked means the target matched the blocklist and was never
	// probed.
	StatusBlocked
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusSilent:
		return "silent"
	case StatusActive:
		return "active"
	case StatusRST:
		return "rst"
	case StatusUnreachable:
		return "unreachable"
	case StatusBlocked:
		return "blocked"
	}
	return "unknown"
}

// Result is the outcome for a single target: 24 bytes, with no padding
// between its fields. Attempts is one byte to keep it so; WithRetries
// caps retries so the count always fits.
type Result struct {
	Addr     ipaddr.Addr
	Proto    proto.Protocol
	Status   Status
	Attempts uint8
}

// Active reports whether the result is a hit.
func (r Result) Active() bool { return r.Status == StatusActive }

// ActiveAddrs returns the addresses of the hits in results, in result
// order, in a slice of exactly that size (nil when there are none).
func ActiveAddrs(results []Result) []ipaddr.Addr {
	n := 0
	for _, r := range results {
		if r.Active() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, n)
	for _, r := range results {
		if r.Active() {
			out = append(out, r.Addr)
		}
	}
	return out
}

// Stats is a point-in-time snapshot of a scanner's counters, merged
// across the per-worker shards by Scanner.Stats.
type Stats struct {
	PacketsSent   atomic.Int64
	packetsRecv   atomic.Int64
	Hits          atomic.Int64
	RSTs          atomic.Int64
	Unreachables  atomic.Int64
	Blocked       atomic.Int64
	InvalidCookie atomic.Int64
}

// Add accumulates o's counters into s. It is the merge step for sharded
// scanning: a cluster coordinator sums per-shard snapshots into one
// whole-run snapshot instead of reaching into individual fields.
func (s *Stats) Add(o *Stats) {
	if o == nil {
		return
	}
	s.PacketsSent.Add(o.PacketsSent.Load())
	s.packetsRecv.Add(o.packetsRecv.Load())
	s.Hits.Add(o.Hits.Load())
	s.RSTs.Add(o.RSTs.Load())
	s.Unreachables.Add(o.Unreachables.Load())
	s.Blocked.Add(o.Blocked.Load())
	s.InvalidCookie.Add(o.InvalidCookie.Load())
}

// Sub subtracts o's counters from s — the delta between two snapshots of
// the same scanner, i.e. what one shard contributed.
func (s *Stats) Sub(o *Stats) {
	if o == nil {
		return
	}
	s.PacketsSent.Add(-o.PacketsSent.Load())
	s.packetsRecv.Add(-o.packetsRecv.Load())
	s.Hits.Add(-o.Hits.Load())
	s.RSTs.Add(-o.RSTs.Load())
	s.Unreachables.Add(-o.Unreachables.Load())
	s.Blocked.Add(-o.Blocked.Load())
	s.InvalidCookie.Add(-o.InvalidCookie.Load())
}

// Values returns the counters as a fixed array in declaration order —
// the wire encoding the cluster protocol ships between worker and
// coordinator.
func (s *Stats) Values() [7]int64 {
	return [7]int64{
		s.PacketsSent.Load(),
		s.packetsRecv.Load(),
		s.Hits.Load(),
		s.RSTs.Load(),
		s.Unreachables.Load(),
		s.Blocked.Load(),
		s.InvalidCookie.Load(),
	}
}

// statShard is one worker's slice of the scanner counters. Each shard is
// padded out to its own cache lines so eight workers incrementing seven
// counters stop bouncing the same lines between cores; Scanner.Stats sums
// the shards on read.
type statShard struct {
	packetsSent   atomic.Int64
	packetsRecv   atomic.Int64
	hits          atomic.Int64
	rsts          atomic.Int64
	unreachables  atomic.Int64
	blocked       atomic.Int64
	invalidCookie atomic.Int64
	_             [72]byte // pad the 56 counter bytes to two cache lines
}

// protoCounters are the telemetry handles resolved once per protocol so
// the per-packet hot path never touches the registry's maps.
type protoCounters struct {
	sent    *telemetry.Counter
	retries *telemetry.Counter
	hits    *telemetry.Counter
}

// Scanner probes targets over a wire.Link. Safe for concurrent Scan calls.
type Scanner struct {
	link wire.Link
	set  settings
	rl   *rateLimiter

	shards   []statShard // len is a power of two
	shardSeq atomic.Int64
	wsPool   sync.Pool                   // recycled *workerState scratch across scans
	scratch  memo.FreeList[*scanScratch] // released call scratch

	dnsName []byte // pre-encoded wire form of dnsQueryName

	// Telemetry handles (nil-safe when no registry is wired).
	pc         [proto.Count]protoCounters
	cRecv      *telemetry.Counter
	cCookieBad *telemetry.Counter
	cBlocked   *telemetry.Counter
}

// New builds a Scanner over link — the canonical arena-batched wire,
// typically a world's WireLink or a wire.Chain composed onto one. With no
// options it matches the paper's §4.2 setup: 2 retries, 8 workers, 10k
// pps, shuffled scan order.
func New(link wire.Link, opts ...Option) *Scanner {
	set := defaultSettings()
	for _, o := range opts {
		o(&set)
	}
	name, err := probe.EncodeName(dnsQueryName)
	if err != nil {
		panic("scanner: impossible DNS name encode failure: " + err.Error())
	}
	s := &Scanner{
		link:    link,
		set:     set,
		rl:      newRateLimiter(set.ratePPS),
		shards:  make([]statShard, nextPow2(set.workers)),
		scratch: memo.NewFreeList(scribbleScratch),
		dnsName: name,
	}
	if reg := set.tele; reg != nil {
		for _, p := range proto.All {
			s.pc[p] = protoCounters{
				sent:    reg.Counter("scanner.probes_sent." + p.String()),
				retries: reg.Counter("scanner.retries." + p.String()),
				hits:    reg.Counter("scanner.hits." + p.String()),
			}
		}
		s.cRecv = reg.Counter("scanner.packets_recv")
		s.cCookieBad = reg.Counter("scanner.cookie_failures")
		s.cBlocked = reg.Counter("scanner.blocked")
	}
	return s
}

// nextPow2 rounds n up to a power of two (minimum 1), so shard selection
// is a mask instead of a modulo.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Stats returns a merged snapshot of the scanner's counters. The snapshot
// is consistent per counter (each is summed atomically across shards) but
// not across counters while scans are in flight.
func (s *Scanner) Stats() *Stats {
	var sent, recv, hits, rsts, unreach, blocked, badCookie int64
	for i := range s.shards {
		sh := &s.shards[i]
		sent += sh.packetsSent.Load()
		recv += sh.packetsRecv.Load()
		hits += sh.hits.Load()
		rsts += sh.rsts.Load()
		unreach += sh.unreachables.Load()
		blocked += sh.blocked.Load()
		badCookie += sh.invalidCookie.Load()
	}
	out := &Stats{}
	out.PacketsSent.Store(sent)
	out.packetsRecv.Store(recv)
	out.Hits.Store(hits)
	out.RSTs.Store(rsts)
	out.Unreachables.Store(unreach)
	out.Blocked.Store(blocked)
	out.InvalidCookie.Store(badCookie)
	return out
}

// VirtualElapsed reports how long all packets sent so far would have taken
// at the configured packet rate.
func (s *Scanner) VirtualElapsed() float64 { return s.rl.VirtualElapsed() }

// cookie derives the per-target validation cookie.
func (s *Scanner) cookie(a ipaddr.Addr, p proto.Protocol) uint64 {
	return ipaddr.Mix64(s.set.secret, a.Hi(), a.Lo(), uint64(p))
}

// Scan probes every target on p and returns one Result per unique target.
// It is ScanContext with a background context; see there for semantics.
func (s *Scanner) Scan(targets []ipaddr.Addr, p proto.Protocol) []Result {
	res, _ := s.ScanContext(context.Background(), targets, p)
	return res
}

// workerState is the per-worker scratch a scan goroutine owns for its
// lifetime: a counter shard and reusable probe/dispatch buffers, so the
// steady-state hot path performs no allocation and no cross-worker writes
// outside its shard.
type workerState struct {
	shard   *statShard
	arena   []byte // packet build area, reused per attempt
	ends    []int  // arena end offset of each pending packet
	pkts    [][]byte
	pending []pendingProbe
	rb      probe.ReplyBuf // reply arena the wire answers each exchange into
}

// pendingProbe tracks one not-yet-answered target within a chunk.
type pendingProbe struct {
	idx    int // index into the chunk
	cookie uint64
}

// newWorkerState hands a worker its scratch state: pooled when a previous
// scan's worker released one (its warmed arenas come back with it), fresh
// otherwise with a round-robin counter shard, so concurrent scans spread
// across the shard pool.
func (s *Scanner) newWorkerState() *workerState {
	if st, ok := s.wsPool.Get().(*workerState); ok {
		return st
	}
	id := int(s.shardSeq.Add(1) - 1)
	return &workerState{shard: &s.shards[id&(len(s.shards)-1)]}
}

// putWorkerState releases a worker's scratch for reuse by later scans.
func (s *Scanner) putWorkerState(st *workerState) { s.wsPool.Put(st) }

// scanScratch is one call's private memory that outlives the call: the
// dedup table, the shuffle's source, the planned order and, for
// ScanActive, the results. Only what the caller keeps is allocated per
// call.
type scanScratch struct {
	dedup   ipaddr.Deduper
	rng     *rand.Rand
	planned []ipaddr.Addr
	results []Result
}

// plan puts the call's PlanOrder of targets in sc.planned: recycled
// scratch when a previous call released one, fresh otherwise. Release it
// with putScratch once nothing reads it.
func (s *Scanner) plan(targets []ipaddr.Addr, p proto.Protocol) *scanScratch {
	sc, ok := s.scratch.Get()
	if !ok {
		sc = new(scanScratch)
	}
	sc.planned = sc.planned[:0]
	sc.plan(s.set.secret, s.set.shuffle, targets, p)
	return sc
}

// putScratch returns sc to the free list, one entry per concurrent caller
// of a shared scanner, unless the list is full or sc was planned for more
// targets than memo's policy keeps (a target costs about 48 B across the
// plan, the results and the dedup table, so about 48 MB).
func (s *Scanner) putScratch(sc *scanScratch) {
	s.scratch.Recycle(sc, max(cap(sc.planned), cap(sc.results)))
}

// ScanContext probes every target on p and returns one Result per unique
// target, in a fresh slice. It is AppendScan(ctx, nil, targets, p).
func (s *Scanner) ScanContext(ctx context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]Result, error) {
	return s.AppendScan(ctx, nil, targets, p)
}

// AppendScan probes every target on p and appends one Result per unique
// target to dst, returning the extended slice; like Go's Append functions
// it grows dst at most once, so a caller that scans batch after batch
// into one buffer (the TGA driver) allocates no results once the buffer
// has grown. Targets are deduplicated and shuffled (unless
// withoutShuffle) into the order PlanOrder computes, then probed by
// ScanPlanned. The caller's slice is never mutated; dedup and shuffle
// operate on a private copy. On cancellation dst plus the results probed
// so far come back with ctx.Err(), as from ScanPlanned.
func (s *Scanner) AppendScan(ctx context.Context, dst []Result, targets []ipaddr.Addr, p proto.Protocol) ([]Result, error) {
	sc := s.plan(targets, p)
	defer s.putScratch(sc)
	return s.ScanPlanned(ctx, dst, sc.planned, p)
}

// ScanPlanned probes planned exactly as given — no dedup, no shuffle —
// with blocklist filtering and retries, and appends one result per
// target to dst, returning the extended slice: result len(dst)+i is
// planned[i]. Like Go's Append functions it grows dst at most once, so a
// caller that presizes dst (a cluster worker filling one shard slice
// batch by batch) gets its results written in place. It is the second
// half of ScanContext, exported so a cluster worker can probe a window of
// the coordinator's PlanOrder without planning it again.
//
// Workers claim contiguous chunks of the target list and probe each chunk
// through one arena-batched exchange per attempt round. Results are
// independent of the chunk size — per-target classification depends only
// on the target, its cookie, and the link's replies.
//
// Cancelling ctx stops the scan between chunks: dst plus the results of
// the probed prefix of planned is returned together with ctx.Err().
func (s *Scanner) ScanPlanned(ctx context.Context, dst []Result, planned []ipaddr.Addr, p proto.Protocol) ([]Result, error) {
	reg := s.set.tele
	wall := reg.StartTimer("scanner.scan.wall_seconds")

	base := len(dst)
	dst = slices.Grow(dst, len(planned))
	results := dst[base : base+len(planned)]
	// next is the chunk claim cursor; sent counts only this scan's packets
	// so virtual-time attribution stays correct under concurrent scans.
	var next, sent atomic.Int64
	var wg sync.WaitGroup
	// No chunk outgrows the list and no worker starts without a chunk to
	// claim, so the cursor stays below 4×len(planned) whatever the options.
	chunk := max(min(s.set.chunk, len(planned)), 1)
	workers := min(s.set.workers, (len(planned)+chunk-1)/chunk)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := s.newWorkerState()
			defer s.putWorkerState(st)
			for ctx.Err() == nil {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= len(planned) {
					return
				}
				end := start + chunk
				if end > len(planned) {
					end = len(planned)
				}
				s.probeChunk(st, planned[start:end], p, results[start:end], &sent)
			}
		}()
	}
	wg.Wait()

	if reg != nil {
		wall.Stop()
		// This scan's own packets × gap: a VirtualElapsed delta would
		// absorb packets of scans running concurrently on this scanner.
		reg.ObserveDuration("scanner.scan.virtual_seconds", float64(sent.Load())*s.rl.Gap())
		reg.Gauge("scanner.ratelimit.virtual_elapsed_seconds").Set(s.rl.VirtualElapsed())
	}
	if err := ctx.Err(); err != nil {
		// Workers claim chunks in order and fully probe every claimed
		// index below len(planned) before exiting, so the claimed prefix
		// is exactly the probed prefix.
		probed := int(next.Load())
		if probed > len(planned) {
			probed = len(planned)
		}
		return dst[:base+probed], err
	}
	return dst[:base+len(planned)], nil
}

// PlanOrder appends to dst the exact probe order a scanner configured
// with (secret, shuffle) uses for one ScanContext call: targets
// deduplicated and, when shuffle is set, permuted by the secret-keyed
// shuffle. Like Go's Append functions it grows dst at most once, so a dst
// with room for len(targets) more is written in place. The caller's
// (routinely shared) seed/candidate list is never reordered.
//
// It is exported so a cluster coordinator can compute the canonical order
// of the equivalent single-scanner run once, into a plan it recycles, and
// hand windows of it to workers, which probe them as given through
// ScanPlanned. The dedup table and shuffle source come from planScratch.
func PlanOrder(dst []ipaddr.Addr, secret uint64, shuffle bool, targets []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr {
	sc, ok := planScratch.Get()
	if !ok {
		sc = new(scanScratch)
	}
	sc.planned = dst
	sc.plan(secret, shuffle, targets, p)
	dst, sc.planned = sc.planned, nil
	planScratch.Recycle(sc, len(targets))
	return dst
}

// planScratch is PlanOrder's free list, like a Scanner's but
// package-level, as PlanOrder has no Scanner to hang it on. Its entries
// hold only a dedup table and a shuffle source, and the policy's bound
// counts the targets they were sized for.
var planScratch = memo.NewFreeList(scribbleScratch)

// scribbleScratch is the poison of both lists (memo.NewFreeList): junk
// targets and active results out to every buffer's capacity, and a
// shuffle source moved off its seed.
func scribbleScratch(sc *scanScratch) {
	junk := ipaddr.AddrFrom64s(0x3fff_0bad_0000_0000, 0xbad)
	sc.planned = sc.planned[:cap(sc.planned)]
	for i := range sc.planned {
		sc.planned[i] = junk
	}
	sc.results = sc.results[:cap(sc.results)]
	for i := range sc.results {
		sc.results[i] = Result{Addr: junk, Status: StatusActive}
	}
	if sc.rng != nil {
		sc.rng.Int63()
	}
}

// plan appends PlanOrder's order to sc.planned, in its memory, and the
// shuffle re-seeds sc's source rather than building one, which permutes
// exactly as a fresh source of the same seed would. It is the one
// planning path, shared by PlanOrder and the scanner's own calls.
func (sc *scanScratch) plan(secret uint64, shuffle bool, targets []ipaddr.Addr, p proto.Protocol) {
	base := len(sc.planned)
	sc.planned = sc.dedup.Append(sc.planned, targets)
	plan := sc.planned[base:]
	if shuffle {
		seed := int64(ipaddr.Mix64(secret, uint64(p), uint64(len(plan))))
		if sc.rng == nil {
			sc.rng = rand.New(rand.NewSource(seed))
		} else {
			sc.rng.Seed(seed)
		}
		sc.rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	}
}

// ScanActive is a convenience wrapper returning only hit addresses.
func (s *Scanner) ScanActive(targets []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr {
	out, _ := s.ScanActiveContext(context.Background(), targets, p)
	return out
}

// ScanActiveContext is the cancellable variant of ScanActive: it scans
// like ScanContext and returns only hit addresses, or ctx's error. The
// results stay in the call's recycled scratch; only the hits are fresh.
func (s *Scanner) ScanActiveContext(ctx context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]ipaddr.Addr, error) {
	sc := s.plan(targets, p)
	defer s.putScratch(sc)
	var err error
	sc.results, err = s.ScanPlanned(ctx, sc.results[:0], sc.planned, p)
	if err != nil {
		return nil, err
	}
	return ActiveAddrs(sc.results), nil
}

// prepareChunk initializes a claimed chunk: zeroed results, blocklist
// filtering, and the pending set of targets still awaiting an answer.
func (s *Scanner) prepareChunk(w *workerState, targets []ipaddr.Addr, p proto.Protocol, results []Result) {
	w.pending = w.pending[:0]
	for i, dst := range targets {
		results[i] = Result{Addr: dst, Proto: p}
		if s.set.blocked(dst) {
			results[i].Status = StatusBlocked
			w.shard.blocked.Add(1)
			s.cBlocked.Inc()
			continue
		}
		w.pending = append(w.pending, pendingProbe{idx: i, cookie: s.cookie(dst, p)})
	}
}

// buildAttempt builds one probe per pending target into the worker's shared
// arena and slices them out into w.pkts, then charges the rate limiter and
// send counters for the round.
func (s *Scanner) buildAttempt(w *workerState, targets []ipaddr.Addr, p proto.Protocol, attempt int, sent *atomic.Int64) {
	n := len(w.pending)
	// Build every probe into the shared arena first (it may move while
	// growing), then slice the packets out by their recorded ends.
	w.arena = w.arena[:0]
	w.ends = w.ends[:0]
	for _, pd := range w.pending {
		w.arena = s.appendProbe(w.arena, targets[pd.idx], p, pd.cookie, attempt)
		w.ends = append(w.ends, len(w.arena))
	}
	w.pkts = w.pkts[:0]
	prev := 0
	for _, end := range w.ends {
		w.pkts = append(w.pkts, w.arena[prev:end])
		prev = end
	}
	s.rl.TakeN(n)
	sent.Add(int64(n))
	w.shard.packetsSent.Add(int64(n))
	s.pc[p].sent.Add(int64(n))
	if attempt > 0 {
		s.pc[p].retries.Add(int64(n))
	}
}

// probeChunk probes one claimed chunk of targets through the canonical
// arena-batched wire: one ExchangeBatchInto per attempt round, answered
// into the worker's ReplyBuf so the exchange allocates nothing on either
// side, with targets leaving the pending set as soon as a validated
// response arrives. The wire contract records at most one reply per
// packet, which matches classification exactly — the first validated
// reply wins; whatever is still pending after the retries stays
// StatusSilent with Attempts already set to the full retry count.
func (s *Scanner) probeChunk(w *workerState, targets []ipaddr.Addr, p proto.Protocol, results []Result, sent *atomic.Int64) {
	s.prepareChunk(w, targets, p, results)
	for attempt := 0; attempt <= s.set.retries && len(w.pending) > 0; attempt++ {
		s.buildAttempt(w, targets, p, attempt, sent)
		s.link.ExchangeBatchInto(w.pkts, &w.rb)

		keep := w.pending[:0]
		for j, pd := range w.pending {
			res := &results[pd.idx]
			res.Attempts = uint8(attempt + 1)
			answered := false
			if raw := w.rb.Reply(j); raw != nil {
				st, ok := s.consumeReply(w, raw, res.Addr, p, pd.cookie, attempt)
				if ok {
					res.Status = st
					answered = true
				}
			}
			if !answered {
				keep = append(keep, pd)
			}
		}
		w.pending = keep
	}
}

// consumeReply counts and classifies one raw reply to dst; ok is false for
// spoofed or cookie-mismatched packets (which count as invalid, not as an
// answer).
func (s *Scanner) consumeReply(w *workerState, raw []byte, dst ipaddr.Addr, p proto.Protocol, cookie uint64, attempt int) (Status, bool) {
	w.shard.packetsRecv.Add(1)
	s.cRecv.Inc()
	st, ok := s.classify(raw, dst, p, cookie, attempt)
	if !ok {
		w.shard.invalidCookie.Add(1)
		s.cCookieBad.Inc()
		return StatusSilent, false
	}
	s.countStatus(w, p, st)
	return st, true
}

// countStatus bumps the counters for one validated response.
func (s *Scanner) countStatus(w *workerState, p proto.Protocol, st Status) {
	switch st {
	case StatusActive:
		w.shard.hits.Add(1)
		s.pc[p].hits.Inc()
	case StatusRST:
		w.shard.rsts.Add(1)
	case StatusUnreachable:
		w.shard.unreachables.Add(1)
	}
}

// appendProbe builds the wire packet for one attempt into buf. The attempt
// number is folded into a varying field so losses genuinely re-roll.
func (s *Scanner) appendProbe(buf []byte, dst ipaddr.Addr, p proto.Protocol, cookie uint64, attempt int) []byte {
	switch p {
	case proto.ICMP:
		var payload [8]byte
		putUint64(payload[:], cookie)
		return probe.AppendEchoRequest(buf, sourceAddr, dst,
			uint16(cookie>>48), uint16(attempt), payload[:])
	case proto.TCP80, proto.TCP443:
		return probe.AppendTCPSyn(buf, sourceAddr, dst,
			srcPortFor(cookie), p.Port(), uint32(cookie)+uint32(attempt))
	case proto.UDP53:
		return probe.AppendDNSQueryWire(buf, sourceAddr, dst,
			srcPortFor(cookie), uint16(cookie)^uint16(attempt*7+1), s.dnsName)
	}
	panic("scanner: unknown protocol")
}

// classify validates a response packet against the probe's cookie. The
// second return value is false for spoofed/mismatched packets.
func (s *Scanner) classify(raw []byte, dst ipaddr.Addr, p proto.Protocol, cookie uint64, attempt int) (Status, bool) {
	pk, err := probe.Parse(raw)
	if err != nil {
		return StatusSilent, false
	}
	if pk.Header.Dst != sourceAddr {
		return StatusSilent, false
	}
	switch pk.Kind {
	case probe.KindEchoReply:
		if p != proto.ICMP || pk.Header.Src != dst {
			return StatusSilent, false
		}
		if pk.EchoID != uint16(cookie>>48) || len(pk.Payload) < 8 || getUint64(pk.Payload) != cookie {
			return StatusSilent, false
		}
		return StatusActive, true
	case probe.KindTCPSynAck:
		if !p.IsTCP() || pk.Header.Src != dst || pk.SrcPort != p.Port() {
			return StatusSilent, false
		}
		if pk.TCPAck != uint32(cookie)+uint32(attempt)+1 {
			return StatusSilent, false
		}
		return StatusActive, true
	case probe.KindTCPRst:
		if !p.IsTCP() || pk.Header.Src != dst {
			return StatusSilent, false
		}
		if pk.TCPAck != uint32(cookie)+uint32(attempt)+1 {
			return StatusSilent, false
		}
		return StatusRST, true
	case probe.KindDNSResponse:
		if p != proto.UDP53 || pk.Header.Src != dst || pk.DstPort != srcPortFor(cookie) {
			return StatusSilent, false
		}
		if pk.DNSID != uint16(cookie)^uint16(attempt*7+1) {
			return StatusSilent, false
		}
		return StatusActive, true
	case probe.KindUnreachable:
		// Unreachables come from routers; validate the quoted probe
		// targeted our destination.
		if len(pk.Payload) >= probe.IPv6HeaderLen {
			quoted, _, qerr := parseQuotedHeader(pk.Payload)
			if qerr == nil && quoted == dst {
				return StatusUnreachable, true
			}
		}
		return StatusSilent, false
	}
	return StatusSilent, false
}

// parseQuotedHeader extracts the destination of the quoted invoking packet
// inside an unreachable message.
func parseQuotedHeader(quote []byte) (ipaddr.Addr, ipaddr.Addr, error) {
	if len(quote) < probe.IPv6HeaderLen {
		return ipaddr.Addr{}, ipaddr.Addr{}, probe.ErrTruncated
	}
	var sb, db [16]byte
	copy(sb[:], quote[8:24])
	copy(db[:], quote[24:40])
	return ipaddr.AddrFrom16(db), ipaddr.AddrFrom16(sb), nil
}

// srcPortFor derives an ephemeral source port from the cookie.
func srcPortFor(cookie uint64) uint16 {
	return 0xc000 | uint16(cookie>>16)&0x3fff
}

func putUint64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

func getUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

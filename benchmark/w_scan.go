package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"seedscan/internal/cluster"
	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// scanWorkload is scan_flood and scan_sharded: the packet path alone.
//
// One pass scans the fixed target list (every collected seed, plus
// in-template noise, plus unrouted addresses) on all four protocols.
// Work is probe packets sent, retries included.
//
// scan_flood drives one scanner.Scanner over the bare world link: probe
// build/parse, scanner dispatch and the world's route/answer do all the
// work. scan_sharded drives the same targets through a cluster.LocalPool
// of GOMAXPROCS (min(nproc, 4)) workers behind a [Tap, Faults] chain with
// seeded loss, so shard leasing, middleware forwarding and retries are on
// the path.
type scanWorkload struct {
	cfg     runConfig
	sharded bool

	fx       *fixture
	targets  []ipaddr.Addr
	unrouted int
	sc       *scanner.Scanner
	pool     *cluster.Pool
	tap      *wire.Tap
	faults   *wire.Faults
}

func (s *scanWorkload) Close() { *s = scanWorkload{cfg: s.cfg, sharded: s.sharded} }

// chain builds the sharded workload's middlewares, fresh per call so
// their counters start at zero.
func (s *scanWorkload) chain() (*wire.Tap, *wire.Faults) {
	return wire.NewTap(nil), wire.NewFaults(wire.FaultsConfig{Seed: s.cfg.Seed, Loss: 0.05, Dupe: 0.01})
}

func (s *scanWorkload) Setup() error {
	s.fx = buildFixture(s.cfg.Size, s.cfg.Seed)
	s.targets, s.unrouted = s.fx.scanTargets(s.cfg.Seed)
	if s.sharded {
		s.tap, s.faults = s.chain()
		s.pool = cluster.NewLocalPool(runtime.GOMAXPROCS(0), s.fx.w.Link(), cluster.Config{
			Secret: s.cfg.Seed,
			Chain:  []wire.Middleware{s.tap, s.faults},
		})
	} else {
		s.sc = scanner.New(s.fx.w.Link(), scanner.WithSecret(s.cfg.Seed))
	}
	return nil
}

// roundResult is one pass's outputs, per protocol: the hits (single
// scanner) or the full results (pool), whichever the prober's call returns.
type roundResult struct {
	packets    int64
	hits       [proto.Count][]ipaddr.Addr
	results    [proto.Count][]scanner.Result
	shards     int
	reassigned int
}

// round scans the targets on every protocol through the workload's
// prober: ScanActive on the single scanner, Run on the pool. Nothing but
// those calls happens here, so nothing else is in a pass's time.
func (s *scanWorkload) round() (roundResult, error) {
	var r roundResult
	for _, p := range proto.All {
		if s.sharded {
			res, err := s.pool.Run(context.Background(), s.targets, p)
			if err != nil {
				return r, err
			}
			r.packets += res.Stats.PacketsSent.Load()
			r.results[p] = res.Results
			r.shards += res.Shards
			r.reassigned += res.Reassigned
		} else {
			before := s.sc.Stats().PacketsSent.Load()
			r.hits[p] = s.sc.ScanActive(s.targets, p)
			r.packets += s.sc.Stats().PacketsSent.Load() - before
		}
	}
	return r, nil
}

func activeOf(results []scanner.Result) []ipaddr.Addr {
	var out []ipaddr.Addr
	for _, r := range results {
		if r.Active() {
			out = append(out, r.Addr)
		}
	}
	return out
}

// verify checks one protocol's full result list: a Result for every
// target, and no hit the world's ground truth denies. It returns the
// share of results that agree with the oracle in both directions (loss
// and rate limiting make silent-but-active targets legitimate, so
// disagreement in that direction is not a failure).
func (s *scanWorkload) verify(p proto.Protocol, results []scanner.Result, m *measurement) (agree float64) {
	if len(results) != len(s.targets) {
		m.Failed += int64(abs(len(s.targets) - len(results)))
		m.Notes = append(m.Notes, fmt.Sprintf("%s: %d results for %d targets", p, len(results), len(s.targets)))
	}
	agreed := 0
	for _, r := range results {
		truth := s.fx.w.ActiveOn(r.Addr, p, world.ScanEpoch) || s.fx.w.IsAliased(r.Addr)
		if r.Active() == truth {
			agreed++
		}
		if r.Active() && !truth {
			m.Failed++
			if len(m.Notes) < 8 {
				m.Notes = append(m.Notes, fmt.Sprintf("%s: hit on %s, which the world denies", p, r.Addr))
			}
		}
	}
	if len(results) == 0 {
		return 0
	}
	return float64(agreed) / float64(len(results))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkRound folds one pass into the measurement: every pass must
// reproduce the first pass's hits.
func (s *scanWorkload) checkRound(r *roundResult, m *measurement) {
	m.Attempted += int64(len(s.targets)) * int64(proto.Count)
	for _, p := range proto.All {
		if r.hits[p] == nil {
			r.hits[p] = activeOf(r.results[p])
		}
		key, got := "hits."+p.String(), setDigest(r.hits[p])
		if first, ok := m.Digests[key]; !ok {
			m.Digests[key] = got
		} else if first != got {
			m.Failed++
			m.Notes = append(m.Notes, fmt.Sprintf("%s: pass hits %s differ from the first pass's %s", p, got, first))
		}
	}
}

func (s *scanWorkload) Measure(deadline time.Time) (*measurement, error) {
	m := &measurement{Digests: make(map[string]string)}
	for first := true; first || time.Now().Before(deadline); first = false {
		pm := beginPass()
		r, err := s.round()
		if err != nil {
			return nil, err
		}
		m.Passes = append(m.Passes, pm.end(r.packets))
		s.checkRound(&r, m)
		if first {
			s.verifyFirst(r, m)
		}
	}
	return m, nil
}

// verifyFirst runs the full-result checks once per run, outside the
// timed passes. The pool's passes already carry full results; the single
// scanner's ScanActive passes do not, so it scans once more with Scan.
func (s *scanWorkload) verifyFirst(r roundResult, m *measurement) {
	for _, p := range proto.All {
		results := r.results[p]
		if !s.sharded {
			results = s.sc.Scan(s.targets, p)
			if got, want := setDigest(activeOf(results)), m.Digests["hits."+p.String()]; got != want {
				m.Failed++
				m.Notes = append(m.Notes, fmt.Sprintf("%s: Scan hits %s differ from ScanActive hits %s", p, got, want))
			}
		}
		s.verify(p, results, m)
	}
	var stats *scanner.Stats
	if s.sharded {
		stats = s.pool.Stats()
	} else {
		stats = s.sc.Stats()
	}
	if cookies := stats.InvalidCookie.Load(); cookies > 0 {
		m.Failed += cookies
		m.Notes = append(m.Notes, fmt.Sprintf("%d replies failed cookie validation", cookies))
	}
}

// plainRound times rounds through prober without any wrapper and returns
// nanoseconds per probe packet and heap allocations per 1,000. It runs
// two rounds and keeps the faster: the first also pays for warming pools
// and arenas, which would otherwise read as a negative tax on whichever
// configuration happens to run second.
func (s *scanWorkload) plainRound(tr *Tracer, name string, pr scanner.Prober, stats func() *scanner.Stats) (nsPerProbe, allocsPerK float64) {
	sp := tr.Push(name)
	defer sp.Pop()
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p0, start := stats().PacketsSent.Load(), time.Now()
		for _, p := range proto.All {
			pr.ScanActive(s.targets, p)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		n := float64(stats().PacketsSent.Load() - p0)
		if ns := float64(d) / n; i == 0 || ns < nsPerProbe {
			nsPerProbe = ns
			allocsPerK = float64(after.Mallocs-before.Mallocs) / (n / 1000)
		}
	}
	return nsPerProbe, allocsPerK
}

// tracedRound is what the traced pass of either workload hands back.
type tracedRound struct {
	round  roundResult
	pass   passSample
	meter  *linkMeter
	stats  *scanner.Stats
	scanNs int64 // the prober wrapper's time; 0 where workers overlap
}

// traceFlood runs the flood's pass with one worker, so that scan time
// splits exactly into scanner self time and link time, and spans nest.
func (s *scanWorkload) traceFlood(tr *Tracer) tracedRound {
	t := tracedRound{meter: &linkMeter{tr: tr, sampleCap: 1 << 16}}
	s.sc = scanner.New(wire.Chain(s.fx.w.Link(), t.meter), scanner.WithSecret(s.cfg.Seed), scanner.WithWorkers(1))
	mp := &meteredProber{inner: s.sc, tr: tr}
	pm := beginPass()
	for _, p := range proto.All {
		t.round.results[p] = mp.Scan(s.targets, p)
	}
	t.stats = s.sc.Stats()
	t.round.packets = t.stats.PacketsSent.Load()
	t.pass = pm.end(t.round.packets)
	t.scanNs = mp.ns.Load()
	return t
}

// traceSharded measures the two single-layer taxes against baseNs (the
// single scanner on the bare link), then runs the workload's own pass
// with a counting meter under the chain. Pool workers call the link
// concurrently, so that meter opens no spans.
func (s *scanWorkload) traceSharded(tr *Tracer, baseNs float64, v map[string]float64) (tracedRound, error) {
	link := s.fx.w.Link()
	ctap, cfaults := s.chain()
	chained := scanner.New(wire.Chain(link, ctap, cfaults), scanner.WithSecret(s.cfg.Seed))
	chainNs, _ := s.plainRound(tr, "reference.single_scanner_chain", chained, chained.Stats)
	v["wire.chain_tax_ns_per_probe"] = chainNs - baseNs
	bare := cluster.NewLocalPool(runtime.GOMAXPROCS(0), link, cluster.Config{Secret: s.cfg.Seed})
	poolNs, _ := s.plainRound(tr, "reference.pool_empty_chain", bare, bare.Stats)
	v["cluster.shard_tax_ns_per_probe"] = poolNs - baseNs

	t := tracedRound{meter: &linkMeter{}}
	s.tap, s.faults = s.chain()
	s.pool = cluster.NewLocalPool(runtime.GOMAXPROCS(0), link, cluster.Config{
		Secret: s.cfg.Seed,
		Chain:  []wire.Middleware{s.tap, s.faults, t.meter},
	})
	pm := beginPass()
	sp := tr.Push("scanner.scan")
	var err error
	t.round, err = s.round()
	sp.Pop()
	if err != nil {
		return t, err
	}
	t.pass = pm.end(t.round.packets)
	t.stats = s.pool.Stats()
	v["wire.faults_dropped"] = float64(s.faults.Dropped())
	v["wire.faults_duplicated"] = float64(s.faults.Duplicated())
	v["wire.tap_probes"] = float64(s.tap.Probes())
	v["cluster.shards"] = float64(t.round.shards)
	v["cluster.reassigned"] = float64(t.round.reassigned)
	return t, nil
}

func (s *scanWorkload) Trace(tr *Tracer) (map[string]float64, *measurement, error) {
	m := &measurement{Digests: make(map[string]string)}
	v := s.fx.layerValues()
	v["world.unrouted_share"] = float64(s.unrouted) / float64(len(s.targets))

	root := tr.Push(s.cfg.Workload + ".trace")
	// Reference: the single scanner on the bare link, no wrapper at all.
	base := scanner.New(s.fx.w.Link(), scanner.WithSecret(s.cfg.Seed))
	baseNs, allocsPerK := s.plainRound(tr, "reference.single_scanner", base, base.Stats)
	v["scanner.allocs_per_kprobe"] = allocsPerK

	var t tracedRound
	if s.sharded {
		var err error
		if t, err = s.traceSharded(tr, baseNs, v); err != nil {
			return nil, nil, err
		}
	} else {
		t = s.traceFlood(tr)
	}
	root.Pop()
	m.Passes = append(m.Passes, t.pass)
	s.checkRound(&t.round, m)

	var agree float64
	for _, p := range proto.All {
		agree += s.verify(p, t.round.results[p], m) / float64(proto.Count)
	}
	probes := float64(t.round.packets)
	first := float64(len(s.targets)) * float64(proto.Count)
	v["scanner.scan_ms"] = float64(t.pass.WallNs) / 1e6
	if t.scanNs > 0 {
		v["scanner.scan_ms"] = float64(t.scanNs) / 1e6
		v["scanner.self_ns_per_probe"] = float64(t.scanNs-t.meter.ns.Load()) / probes
	}
	v["scanner.probes"] = probes
	v["scanner.retry_ratio"] = (probes - first) / first
	v["scanner.cookie_failures"] = float64(t.stats.InvalidCookie.Load())
	v["scanner.oracle_agreement"] = agree
	v["world.batch_ns_per_pkt"] = float64(t.meter.ns.Load()) / float64(t.meter.pkts.Load())
	v["world.reply_ratio"] = float64(t.meter.replies.Load()) / float64(t.meter.pkts.Load())
	m.Failed += t.stats.InvalidCookie.Load()
	v["probe.build_ns_per_pkt"] = s.buildBench()
	if len(t.meter.sample) > 0 {
		v["probe.parse_ns_per_pkt"] = parseBench(t.meter.sample)
	}
	return v, m, nil
}

// buildSink keeps the build loop's output alive.
var buildSink int

// buildBench times the three probe builders over the workload's targets.
func (s *scanWorkload) buildBench() float64 {
	src := ipaddr.MustParse("2001:db8:5ca0::1")
	name, err := probe.EncodeName("seedscan.example")
	if err != nil {
		return 0
	}
	payload := make([]byte, 8)
	buf := make([]byte, 0, 256)
	start := time.Now()
	for i, dst := range s.targets {
		buf = probe.AppendEchoRequest(buf[:0], src, dst, uint16(i), 1, payload)
		buf = probe.AppendTCPSyn(buf[:0], src, dst, 40000, 443, uint32(i))
		buf = probe.AppendDNSQueryWire(buf[:0], src, dst, 40000, uint16(i), name)
	}
	buildSink = len(buf)
	return float64(time.Since(start)) / float64(3*len(s.targets))
}

// parseBench times probe.Parse over captured replies.
func parseBench(replies [][]byte) float64 {
	start := time.Now()
	ok := 0
	for _, raw := range replies {
		if _, err := probe.Parse(raw); err == nil {
			ok++
		}
	}
	buildSink = ok
	return float64(time.Since(start)) / float64(len(replies))
}

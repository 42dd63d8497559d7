package main

import (
	"context"
	"sync/atomic"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/wire"
)

// The wrappers below are how layers are measured from outside: each sits
// on a public seam of the program (wire.Middleware, scanner.Prober,
// tga.Generator, tga.Dealiaser), times the call through it, and opens a
// span when a tracer is attached. They change no bytes and no results.

// linkMeter is the innermost wire middleware: it sits directly on the
// world's link and counts what crosses it.
type linkMeter struct {
	tr      *Tracer
	pkts    atomic.Int64
	replies atomic.Int64
	ns      atomic.Int64

	// sample keeps copies of up to sampleCap replies for the parse
	// microbenchmark. Filled only while a tracer is attached and only from
	// one goroutine at a time (traced scanners run one worker).
	sample    [][]byte
	sampleCap int
}

func (m *linkMeter) Wrap(next wire.Link) wire.Link {
	return wire.LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) {
		sp := m.tr.Push("world.link")
		start := time.Now()
		next.ExchangeBatchInto(pkts, rb)
		m.ns.Add(int64(time.Since(start)))
		sp.Pop()
		m.pkts.Add(int64(len(pkts)))
		var got int64
		for i := range pkts {
			if raw := rb.Reply(i); raw != nil {
				got++
				if len(m.sample) < m.sampleCap {
					m.sample = append(m.sample, append([]byte(nil), raw...))
				}
			}
		}
		m.replies.Add(got)
	})
}

// scanProber is the union surface every in-process prober offers
// (*scanner.Scanner, *cluster.Pool).
type scanProber interface {
	scanner.Prober
	scanner.ContextProber
}

// meteredProber times every scan through a prober.
type meteredProber struct {
	inner scanProber
	tr    *Tracer
	ns    atomic.Int64
	// gate, when set, is asked before each context scan; an error ends the
	// scan before it starts (the daemon workload stops at epoch
	// boundaries this way). onScan observes each completed scan.
	gate   func() error
	onScan func(d time.Duration)
}

func (p *meteredProber) done(sp *Span, start time.Time) {
	d := time.Since(start)
	sp.Pop()
	p.ns.Add(int64(d))
	if p.onScan != nil {
		p.onScan(d)
	}
}

func (p *meteredProber) Scan(targets []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	sp, start := p.tr.Push("scanner.scan"), time.Now()
	defer p.done(sp, start)
	return p.inner.Scan(targets, pr)
}

func (p *meteredProber) ScanActive(targets []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	sp, start := p.tr.Push("scanner.scan"), time.Now()
	defer p.done(sp, start)
	return p.inner.ScanActive(targets, pr)
}

func (p *meteredProber) ScanContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]scanner.Result, error) {
	if p.gate != nil {
		if err := p.gate(); err != nil {
			return nil, err
		}
	}
	sp, start := p.tr.Push("scanner.scan"), time.Now()
	defer p.done(sp, start)
	return p.inner.ScanContext(ctx, targets, pr)
}

func (p *meteredProber) ScanActiveContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]ipaddr.Addr, error) {
	if p.gate != nil {
		if err := p.gate(); err != nil {
			return nil, err
		}
	}
	sp, start := p.tr.Push("scanner.scan"), time.Now()
	defer p.done(sp, start)
	return p.inner.ScanActiveContext(ctx, targets, pr)
}

// genTimes accumulates one generator's time across the cells that ran it.
type genTimes struct {
	initNs, nextNs, feedbackNs int64
	modelBuilds                int64
}

// meteredGen times a generator's three phases. The driver is run serially
// in traced replays, so plain fields suffice.
type meteredGen struct {
	inner tga.Generator
	tr    *Tracer
	t     *genTimes
}

func (g *meteredGen) Name() string { return g.inner.Name() }
func (g *meteredGen) Online() bool { return g.inner.Online() }

func (g *meteredGen) Init(seeds []ipaddr.Addr) error {
	sp, start := g.tr.Push("tga.init"), time.Now()
	err := g.inner.Init(seeds)
	g.t.initNs += int64(time.Since(start))
	sp.Pop()
	return err
}

func (g *meteredGen) NextBatch(n int) []ipaddr.Addr {
	sp, start := g.tr.Push("tga.next_batch"), time.Now()
	out := g.inner.NextBatch(n)
	g.t.nextNs += int64(time.Since(start))
	sp.Pop()
	return out
}

func (g *meteredGen) Feedback(results []tga.ProbeResult) {
	sp, start := g.tr.Push("tga.feedback"), time.Now()
	g.inner.Feedback(results)
	g.t.feedbackNs += int64(time.Since(start))
	sp.Pop()
}

// meteredModelGen adds the ModelBuilder split, so the driver still routes
// mining through the model cache; a BuildModel call is a cache miss.
type meteredModelGen struct {
	meteredGen
	mb tga.ModelBuilder
}

func (g *meteredModelGen) ModelParams() string { return g.mb.ModelParams() }

func (g *meteredModelGen) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	sp, start := g.tr.Push("tga.init"), time.Now()
	m, err := g.mb.BuildModel(seeds)
	g.t.initNs += int64(time.Since(start))
	g.t.modelBuilds++
	sp.Pop()
	return m, err
}

func (g *meteredModelGen) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	sp, start := g.tr.Push("tga.init"), time.Now()
	err := g.mb.InitFromModel(m, seeds)
	g.t.initNs += int64(time.Since(start))
	sp.Pop()
	return err
}

// meterGenerator wraps g, keeping the ModelBuilder surface when g has it.
func meterGenerator(g tga.Generator, tr *Tracer, t *genTimes) tga.Generator {
	base := meteredGen{inner: g, tr: tr, t: t}
	if mb, ok := g.(tga.ModelBuilder); ok {
		return &meteredModelGen{meteredGen: base, mb: mb}
	}
	return &base
}

// meteredDealiaser times Split and counts the distinct /96s it was asked
// about, the denominator of the verdict-cache hit ratio.
type meteredDealiaser struct {
	inner    tga.Dealiaser
	tr       *Tracer
	ns       int64
	prefixes int64
}

func (d *meteredDealiaser) Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	seen := make(map[ipaddr.Prefix]struct{}, len(addrs))
	for _, a := range addrs {
		seen[ipaddr.PrefixFrom(a, 96)] = struct{}{}
	}
	d.prefixes += int64(len(seen))
	sp, start := d.tr.Push("alias.split"), time.Now()
	clean, aliased = d.inner.Split(addrs)
	d.ns += int64(time.Since(start))
	sp.Pop()
	return clean, aliased
}

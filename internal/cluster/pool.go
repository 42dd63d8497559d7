package cluster

import (
	"context"
	"strconv"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
)

// Pool binds a Coordinator to a fixed worker set and exposes the
// scanner-shaped prober surface (Scan / ScanContext / ScanActive), so
// anything that probes through a *scanner.Scanner — the TGA driver, the
// dealiasers, experiment.Env — can fan out across a cluster unchanged.
type Pool struct {
	coord   *Coordinator
	workers []Worker
	stats   *scanner.Stats
}

// newPool binds cfg's coordinator to workers.
func newPool(cfg Config, workers ...Worker) *Pool {
	return &Pool{coord: NewCoordinator(cfg), workers: workers, stats: &scanner.Stats{}}
}

// NewLocalPool builds an n-worker in-process pool whose worker scanners
// all replicate the coordinator's reference configuration over link:
// merged cluster scans are byte-identical to one such scanner scanning
// alone. cfg.Chain and cfg.Wire are composed onto link once and shared by
// every worker, exactly as a single scanner shares its chain across its
// own probe workers — middlewares are concurrency-safe, so sharding
// changes nothing about what a tap or fault injector observes in
// aggregate. Extra scanner options (telemetry...) apply to every worker;
// cfg's Secret/Retries/RatePPS are applied after them.
func NewLocalPool(n int, link wire.Link, cfg Config, opts ...scanner.Option) *Pool {
	if n < 1 {
		n = 1
	}
	cfg.fillDefaults(n)
	job := cfg.job(0) // for its secret, retries and rate; Run names the protocol
	link = wire.Chain(cfg.Wire.Build(link, cfg.Telemetry), cfg.Chain...)
	workers := make([]Worker, n)
	for i := range workers {
		workers[i] = newLocalWorker(workerName(i), jobScanner(link, job, opts))
	}
	return newPool(cfg, workers...)
}

// workerName labels in-process workers w0, w1, ...
func workerName(i int) string { return "w" + strconv.Itoa(i) }

// Run executes one coordinated scan and returns the full merged result.
func (p *Pool) Run(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) (*RunResult, error) {
	res, err := p.coord.Run(ctx, p.workers, targets, pr)
	if err != nil {
		return nil, err
	}
	p.stats.Add(res.Stats)
	return res, nil
}

// ScanContext implements the cancellable prober surface.
func (p *Pool) ScanContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]scanner.Result, error) {
	res, err := p.Run(ctx, targets, pr)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// Scan implements scanner.Prober.
func (p *Pool) Scan(targets []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	res, _ := p.ScanContext(context.Background(), targets, pr)
	return res
}

// ScanActive implements scanner.Prober.
func (p *Pool) ScanActive(targets []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	out, _ := p.ScanActiveContext(context.Background(), targets, pr)
	return out
}

// ScanActiveContext completes the scanner.ContextProber surface, so a
// pool drops in anywhere a cancellable scanner does (e.g. the
// longitudinal daemon).
func (p *Pool) ScanActiveContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]ipaddr.Addr, error) {
	res, err := p.ScanContext(ctx, targets, pr)
	if err != nil {
		return nil, err
	}
	return scanner.ActiveAddrs(res), nil
}

// Stats returns the pool's cumulative merged counters across every run —
// the cluster analogue of Scanner.Stats.
func (p *Pool) Stats() *scanner.Stats {
	snap := &scanner.Stats{}
	snap.Add(p.stats)
	return snap
}

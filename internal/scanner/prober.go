package scanner

import (
	"context"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// Prober is the scanning surface the rest of the stack (tga, alias,
// hitlist, longitudinal) probes through. *Scanner implements it, as does
// a cluster pool; tests substitute oracles.
//
// Scan returns one classified Result per unique target; ScanActive is the
// hit-addresses-only convenience most consumers want. Implementations
// must not mutate targets: callers pass shared seed and candidate lists
// without copying them.
type Prober interface {
	Scan(targets []ipaddr.Addr, p proto.Protocol) []Result
	ScanActive(targets []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr
}

// ContextProber is the cancellable variant of Prober, under the same
// no-mutation rule. Consumers that hold a Prober reach it through
// AsContextProber.
type ContextProber interface {
	ScanContext(ctx context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]Result, error)
	ScanActiveContext(ctx context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]ipaddr.Addr, error)
}

// AsContextProber returns p's cancellable surface: p itself when it
// implements ContextProber (as *Scanner and cluster pools do), so
// cancellation lands mid-scan; otherwise an adapter whose scans block to
// completion and never fail.
func AsContextProber(p Prober) ContextProber {
	if cp, ok := p.(ContextProber); ok {
		return cp
	}
	return blockingProber{p}
}

// blockingProber lifts a plain Prober into ContextProber by ignoring ctx.
type blockingProber struct{ p Prober }

func (b blockingProber) ScanContext(_ context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]Result, error) {
	return b.p.Scan(targets, p), nil
}

func (b blockingProber) ScanActiveContext(_ context.Context, targets []ipaddr.Addr, p proto.Protocol) ([]ipaddr.Addr, error) {
	return b.p.ScanActive(targets, p), nil
}

package experiment

import (
	"context"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/world"
)

// Ablation helpers for the design decisions DESIGN.md calls out: the
// packet-level scan path versus a ground-truth oracle, and the batch-size
// sensitivity of online generators.

// OracleProber answers probes straight from the world's ground truth,
// bypassing packet construction, the wire, parsing, loss, and rate
// limits. It exists to quantify what the packet path costs and what
// fidelity it adds (rate-limited and lossy targets behave differently);
// experiments always use the real scanner.
type OracleProber struct {
	World *world.World
}

// Scan implements scanner.Prober against ground truth.
func (o *OracleProber) Scan(targets []ipaddr.Addr, p proto.Protocol) []scanner.Result {
	epoch := o.World.Epoch()
	out := make([]scanner.Result, len(targets))
	for i, a := range targets {
		st := scanner.StatusSilent
		if o.World.ActiveOn(a, p, epoch) {
			st = scanner.StatusActive
		}
		out[i] = scanner.Result{Addr: a, Proto: p, Status: st, Attempts: 1}
	}
	return out
}

// ScanActive completes scanner.Prober, mirroring scanner.Scanner's
// convenience method.
func (o *OracleProber) ScanActive(targets []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr {
	return scanner.ActiveAddrs(o.Scan(targets, p))
}

// ScanAgreement scans targets with both the packet-path scanner and the
// oracle and returns the fraction of targets on which they agree about
// activity. Disagreements come from loss (bounded by retries) and
// rate-limited regions — the fidelity the packet path adds.
func (e *Env) ScanAgreement(targets []ipaddr.Addr, p proto.Protocol) float64 {
	if len(targets) == 0 {
		return 1
	}
	oracle := &OracleProber{World: e.World}
	oracleActive := ipaddr.NewSet(oracle.ScanActive(targets, p)...)
	scanActive := ipaddr.NewSet(e.Prober.ScanActive(append([]ipaddr.Addr(nil), targets...), p)...)
	agree := 0
	for _, a := range targets {
		if oracleActive.Contains(a) == scanActive.Contains(a) {
			agree++
		}
	}
	return float64(agree) / float64(len(targets))
}

// BatchSizeAblation runs one online generator at several feedback batch
// sizes and reports hits per size — quantifying how much online adaptation
// depends on feedback frequency (DESIGN.md decision 3). The runs go
// through the grid engine, so the experiment-default batch size dedups
// against the regular RQ cells and counts raw (unfiltered) hits from the
// checkpointed result.
func (e *Env) BatchSizeAblation(gen string, p proto.Protocol, budget int, sizes []int) (map[int]int, error) {
	rs, err := e.Grid().Run(context.Background(), e.SpecBatchAblation(gen, p, budget, sizes))
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(sizes))
	for _, bs := range sizes {
		out[bs] = len(rs.Of(e.cell(gen, TreatmentAllActive, p, budget, bs)).Hits)
	}
	return out, nil
}

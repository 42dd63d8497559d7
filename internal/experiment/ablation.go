package experiment

import (
	"fmt"
	"strings"

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

// batchAblation declares the feedback batch-size ablation: one generator
// on All Active at several batch sizes, one row per size, read as raw
// (unfiltered) hits per size — how much online adaptation depends on
// feedback frequency (DESIGN.md decision 3). The experiment-default size
// dedups against the regular RQ cells.
func (e *Env) batchAblation(gen string, p proto.Protocol, budget int, sizes []int) Sweep {
	rows := make([]Row, len(sizes))
	for i, bs := range sizes {
		rows[i] = rowAllActive
		rows[i].Batch = bs
	}
	return e.sweep(Sweep{Name: "Batch ablation", Rows: rows}, []proto.Protocol{p}, []string{gen}, budget)
}

// renderAblation prints the two ablations of `-run ablation`: packet-path
// vs. oracle agreement, and the run batch-size sweep's hits per size.
func (e *Env) renderAblation(rs *SweepResult) string {
	// Every k-th All Active seed, not the first 5000: the set is ordered
	// by the protocol that first found each address, so its head holds
	// only addresses the packet path has already seen answer ICMP, which
	// agree with the oracle by construction.
	targets := e.AllActiveSeeds().Slice()
	if n := len(targets); n > 5000 {
		for i := 0; i < 5000; i++ {
			targets[i] = targets[i*n/5000]
		}
		targets = targets[:5000]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: packet-path vs oracle agreement on %d targets: %.2f%%\n",
		len(targets), 100*e.ScanAgreement(targets, rs.Protos[0]))
	fmt.Fprintf(&sb, "Ablation: %s hits by feedback batch size:\n", rs.Gens[0])
	for i, row := range rs.Rows {
		fmt.Fprintf(&sb, "  batch %5d -> %d hits\n", row.Batch, metricRawHits(rs.At(i, 0, 0)))
	}
	return sb.String()
}

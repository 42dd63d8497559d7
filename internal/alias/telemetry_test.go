package alias

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// silentProber answers nothing, so every tested prefix is judged clean.
type silentProber struct{}

func (silentProber) ScanActive(ts []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr { return nil }

// Scan completes the shared scanner.Prober surface; a silent wire never
// answers.
func (silentProber) Scan(ts []ipaddr.Addr, p proto.Protocol) []scanner.Result {
	out := make([]scanner.Result, len(ts))
	for i, a := range ts {
		out[i] = scanner.Result{Addr: a, Proto: p, Status: scanner.StatusSilent, Attempts: 1}
	}
	return out
}

func TestDealiaserTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(ModeOnline, nil, silentProber{}, proto.ICMP, 7, reg)

	addrs := []ipaddr.Addr{
		ipaddr.MustParse("2001:db8:1::1"),
		ipaddr.MustParse("2001:db8:1::2"), // same /96 as above
		ipaddr.MustParse("2001:db8:2::1"),
	}
	d.Split(addrs)

	snap := reg.Snapshot()
	if got := snap.Counters["alias.verdict_cache.misses"]; got != 2 {
		t.Fatalf("misses = %d, want 2 (two distinct /96s)", got)
	}
	if got := snap.Counters["alias.verdict_cache.hits"]; got != 0 {
		t.Fatalf("hits = %d, want 0", got)
	}
	if got := snap.Counters["alias.prefixes_tested"]; got != int64(d.PrefixesTested()) {
		t.Fatalf("prefixes_tested = %d, want %d", got, d.PrefixesTested())
	}
	if got := snap.Counters["alias.probes_sent"]; got != int64(d.ProbesSent()) {
		t.Fatalf("probes_sent = %d, want %d", got, d.ProbesSent())
	}

	// Second split over the same prefixes: all verdicts cached.
	d.Split(addrs)
	snap = reg.Snapshot()
	if got := snap.Counters["alias.verdict_cache.hits"]; got != 2 {
		t.Fatalf("hits after resplit = %d, want 2", got)
	}
	if got := snap.Counters["alias.verdict_cache.misses"]; got != 2 {
		t.Fatalf("misses after resplit = %d, want 2", got)
	}
}

// TestDealiaserWithoutTelemetry pins the nil-safety of an unwired Dealiaser.
func TestDealiaserWithoutTelemetry(t *testing.T) {
	d := New(ModeOnline, nil, silentProber{}, proto.ICMP, 7, nil)
	clean, aliased := d.Split([]ipaddr.Addr{ipaddr.MustParse("2001:db8::1")})
	if len(clean) != 1 || len(aliased) != 0 {
		t.Fatalf("split = %d/%d", len(clean), len(aliased))
	}
}

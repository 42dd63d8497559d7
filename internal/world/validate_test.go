package world

import (
	"testing"

	"seedscan/internal/proto"
)

// TestConfiguredRatesRealized Monte-Carlo checks that the deterministic
// activity hash realizes each region's configured density × response rate,
// across classes and protocols — the statistical contract every experiment
// rests on.
func TestConfiguredRatesRealized(t *testing.T) {
	w := smallWorld(t)
	checked := 0
	for _, r := range w.Regions() {
		if r.Aliased || r.density < 0.05 || checked >= 12 {
			continue
		}
		checked++
		for _, p := range []proto.Protocol{proto.ICMP, proto.TCP443} {
			want := r.density * r.resp[p]
			got := w.estimateActiveFraction(r, p, CollectEpoch, 3000, 77+uint64(checked))
			tol := 0.05 + want*0.2
			if got < want-tol || got > want+tol {
				t.Errorf("region %v %v: measured %.3f, configured %.3f", r.Prefix, p, got, want)
			}
		}
	}
	if checked < 8 {
		t.Fatalf("only %d regions checked", checked)
	}
}

// TestChurnRateRealized verifies the epoch-1 survivor fraction matches
// 1-Churn per region.
func TestChurnRateRealized(t *testing.T) {
	w := smallWorld(t)
	checked := 0
	for _, r := range w.Regions() {
		if r.Aliased || r.density < 0.2 || r.churn < 0.1 || checked >= 5 {
			continue
		}
		checked++
		rng := newTestRand(int64(1000 + checked))
		alive0, alive1 := 0, 0
		for i := 0; i < 6000; i++ {
			a := r.Template.random(rng)
			if w.existsAt(a, r, CollectEpoch) {
				alive0++
				if w.existsAt(a, r, ScanEpoch) {
					alive1++
				}
			}
		}
		if alive0 < 300 {
			continue
		}
		got := 1 - float64(alive1)/float64(alive0)
		if got < r.churn-0.08 || got > r.churn+0.08 {
			t.Errorf("region %v: measured churn %.3f, configured %.3f", r.Prefix, got, r.churn)
		}
	}
	if checked == 0 {
		t.Fatal("no churn-prone regions checked")
	}
}

// TestAliasedRegionsAnswerAllProtocols pins the ground truth dealiasers
// rely on: every address of an aliased region is active on its advertised
// protocols at every epoch.
func TestAliasedRegionsAnswerAllProtocols(t *testing.T) {
	w := smallWorld(t)
	rng := newTestRand(2024)
	for _, r := range w.Regions() {
		if !r.Aliased {
			continue
		}
		for i := 0; i < 10; i++ {
			a := r.Prefix.RandomWithin(rng)
			for _, p := range proto.All {
				want := r.resp[p] > 0.5
				if got := w.ActiveOn(a, p, ScanEpoch); got != want {
					t.Fatalf("aliased %v on %v: active=%v want %v", a, p, got, want)
				}
			}
		}
	}
}

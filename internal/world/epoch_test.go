package world

import (
	"math/rand"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
)

// epochTestAddrs samples a deterministic mix of template addresses from
// every non-aliased region — enough of each region's density axis to
// exercise cohort 0, every birth cohort, and the churn/flap rolls.
func epochTestAddrs(w *World, perRegion int) []ipaddr.Addr {
	var out []ipaddr.Addr
	for _, r := range w.Regions() {
		if r.Aliased {
			continue
		}
		rng := rand.New(rand.NewSource(int64(r.Prefix.Addr().Hi() ^ r.Prefix.Addr().Lo())))
		for i := 0; i < perRegion; i++ {
			out = append(out, r.Template.Random(rng))
		}
	}
	return ipaddr.DedupSorted(out)
}

// existsSet folds ExistsAt over addrs at one epoch into a bitmap.
func existsSet(w *World, addrs []ipaddr.Addr, epoch int) []bool {
	out := make([]bool, len(addrs))
	for i, a := range addrs {
		out[i] = w.ExistsAt(a, epoch)
	}
	return out
}

// TestEpochZeroOneUnchanged pins the N-epoch generalization to the
// original two-epoch model: at epochs 0 and 1, existence must equal the
// legacy formula (density cut, single churn hash, single birth band)
// hash for hash. This is what keeps every golden experiment output valid.
func TestEpochZeroOneUnchanged(t *testing.T) {
	w := New(Config{Seed: 42, NumASes: 40})
	addrs := epochTestAddrs(w, 64)
	if len(addrs) < 1000 {
		t.Fatalf("only %d sample addresses", len(addrs))
	}
	for _, a := range addrs {
		r, ok := w.RegionOf(a)
		if !ok || r.Aliased || !r.Template.Matches(a) {
			continue
		}
		u := unit(ipaddr.Mix64(w.seed, tagExists, a.Hi(), a.Lo()))
		legacy0 := u < r.Density
		var legacy1 bool
		if legacy0 {
			legacy1 = unit(ipaddr.Mix64(w.seed, tagChurn, a.Hi(), a.Lo())) >= r.Churn
		} else {
			legacy1 = u < r.Density*(1+r.Birth)
		}
		if got := w.ExistsAt(a, CollectEpoch); got != legacy0 {
			t.Fatalf("epoch 0 diverged from legacy model at %v: got %v", a, got)
		}
		if got := w.ExistsAt(a, ScanEpoch); got != legacy1 {
			t.Fatalf("epoch 1 diverged from legacy model at %v: got %v", a, got)
		}
	}
}

// TestEpochDeterminism asserts the same seed produces identical
// survivor/birth sets per epoch across repeated evaluations, across
// separately built worlds, and across concurrent goroutines (run under
// -race to catch any shared mutable state in the epoch path).
func TestEpochDeterminism(t *testing.T) {
	w1 := New(Config{Seed: 99, NumASes: 30})
	w2 := New(Config{Seed: 99, NumASes: 30})
	addrs := epochTestAddrs(w1, 48)

	const maxEpoch = 6
	want := make([][]bool, maxEpoch+1)
	for e := 0; e <= maxEpoch; e++ {
		want[e] = existsSet(w1, addrs, e)
	}

	// A separately built world agrees epoch by epoch.
	for e := 0; e <= maxEpoch; e++ {
		got := existsSet(w2, addrs, e)
		for i := range got {
			if got[i] != want[e][i] {
				t.Fatalf("epoch %d: world rebuilt from the same seed diverges at %v", e, addrs[i])
			}
		}
	}

	// Concurrent re-evaluation over one shared world agrees too.
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			got := existsSet(w1, addrs, e)
			for i := range got {
				if got[i] != want[e][i] {
					errs <- addrs[i].String()
					return
				}
			}
		}(g % (maxEpoch + 1))
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent evaluation diverged at %s", bad)
	}
}

// TestEpochCohortsAndChurn checks the structural properties of the
// N-epoch model: births keep arriving in later epochs (disjoint cohorts),
// deaths happen every transition, and a host that disappears by churn
// (rather than flap) never returns.
func TestEpochCohortsAndChurn(t *testing.T) {
	w := New(Config{Seed: 7, NumASes: 40})
	addrs := epochTestAddrs(w, 64)

	const maxEpoch = 6
	alive := make([][]bool, maxEpoch+1)
	for e := 0; e <= maxEpoch; e++ {
		alive[e] = existsSet(w, addrs, e)
	}

	bornLater, diedLater := 0, 0
	for e := 2; e <= maxEpoch; e++ {
		for i := range addrs {
			if alive[e][i] && !alive[e-1][i] && !alive[0][i] {
				bornLater++
			}
			if !alive[e][i] && alive[e-1][i] {
				diedLater++
			}
		}
	}
	if bornLater == 0 {
		t.Fatal("no births after epoch 1: the birth cohorts are not advancing")
	}
	if diedLater == 0 {
		t.Fatal("no deaths after epoch 1: churn is not applied per transition")
	}

	// Down-then-up transitions exist (flap recoveries and later births),
	// and every one is explained by the model: a churn death is permanent,
	// so any host alive at e+1 after being down at e must either have been
	// born at e+1 or have been flap-down at e with clean churn rolls.
	recoveries := 0
	for i, a := range addrs {
		r, ok := w.RegionOf(a)
		if !ok || r.Aliased || !r.Template.Matches(a) {
			continue
		}
		for e := 2; e < maxEpoch; e++ {
			if !alive[e][i] && alive[e+1][i] && alive[e-1][i] {
				// Alive on both sides of a one-epoch gap: that can only be a
				// flap, and the flap hash must say so.
				flapped := unit(ipaddr.Mix64(w.seed, tagFlap, a.Hi(), a.Lo(), uint64(e))) < r.Churn*flapFraction
				if !flapped {
					t.Fatalf("%v down at epoch %d without a flap roll", a, e)
				}
				recoveries++
			}
		}
	}
	if recoveries == 0 {
		t.Fatal("no flap recoveries observed across epochs 2..6; flap model inert")
	}
}

// TestFlapDowntimeIsTransient pins the flap mechanism: a cohort-0 host
// whose churn rolls survive every transition through maxEpoch is down at
// epoch e iff its flap hash fires at e, and flap never affects epochs 0-1.
func TestFlapDowntimeIsTransient(t *testing.T) {
	w := New(Config{Seed: 11, NumASes: 40})
	addrs := epochTestAddrs(w, 64)

	const maxEpoch = 6
	checked := 0
	for _, a := range addrs {
		r, ok := w.RegionOf(a)
		if !ok || r.Aliased || !r.Template.Matches(a) || r.Churn <= 0 {
			continue
		}
		u := unit(ipaddr.Mix64(w.seed, tagExists, a.Hi(), a.Lo()))
		if u >= r.Density {
			continue // only cohort 0 here
		}
		// Geometric survival: one draw against the cumulative death
		// probability decides whether the host outlives every transition
		// through maxEpoch.
		if unit(w.churnHash(a)) < r.deathBy(maxEpoch) {
			continue
		}
		checked++
		for e := 2; e <= maxEpoch; e++ {
			flapped := unit(ipaddr.Mix64(w.seed, tagFlap, a.Hi(), a.Lo(), uint64(e))) < r.Churn*flapFraction
			if got := w.ExistsAt(a, e); got != !flapped {
				t.Fatalf("epoch %d: %v exists=%v, flap=%v", e, a, got, flapped)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d never-churned cohort-0 hosts checked; sample too thin", checked)
	}
}

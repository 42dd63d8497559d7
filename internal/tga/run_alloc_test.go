//go:build !race

package tga_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
	"seedscan/internal/tga/det"
	"seedscan/internal/tga/sixtree"
)

// minedModels hands every run a model mined before the count starts, so
// a run's bytes are its generation alone.
type minedModels map[string]tga.Model

func (m minedModels) GetOrBuild(_ context.Context, g tga.ModelBuilder, _ []ipaddr.Addr) (tga.Model, error) {
	return m[g.ModelParams()], nil
}

// bytesOf reports what fn allocates, in bytes, with collection off.
func bytesOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSeeds is a fixed seed set: low-byte, structured and hashed IIDs in
// 64 /64s, in canonical order.
func allocSeeds() []ipaddr.Addr {
	var out []ipaddr.Addr
	for net := uint64(0); net < 64; net++ {
		hi := 0x20010db8_0000_0000 | net<<20 | net%5
		for i := uint64(0); i < 8; i++ {
			out = append(out,
				ipaddr.AddrFrom64s(hi, i+1),
				ipaddr.AddrFrom64s(hi, 0x00aa_0000_0000_0000|i<<16|net&3),
				ipaddr.AddrFrom64s(hi, ipaddr.Mix64(net, i)))
		}
	}
	return tga.CanonicalSeeds(out)
}

// TestRunCandidateBookkeepingIsOneSet pins what a driver run allocates
// for one Expander generator (6Tree) and one LeafSearch generator (DET),
// with the model mined beforehand: the run's one candidate set, presized
// to the budget, plus a slack for the generator's run state (enumerators,
// DET's pending-proposal map, which holds one batch at most) and the
// twelve batches it returns. That costs 720 KiB for 6Tree and 791 KiB for
// DET; each slack adds less than a driver-side copy of every
// batch (188 KiB) or a second dedup set (320 KiB presized, more grown by
// doubling), so either fails the pin. The budget is a whole number of
// batches and no seed is excluded, so the run's set holds exactly the
// budget and never grows.
func TestRunCandidateBookkeepingIsOneSet(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget, kib = 12000, 1 << 10
	seeds := allocSeeds()
	set := bytesOf(func() { ipaddr.NewSetCap(budget) })
	for _, c := range []struct {
		g     tga.ModelBuilder
		slack uint64
	}{
		{sixtree.New(), 896 * kib},
		{det.New(), 896 * kib},
	} {
		m, err := c.g.BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tga.RunConfig{Budget: budget, BatchSize: 1000, Models: minedModels{c.g.ModelParams(): m}}
		var res *tga.RunResult
		got := bytesOf(func() { res, err = tga.RunContext(context.Background(), c.g, seeds, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Generated != budget {
			t.Fatalf("%s generated %d of %d", c.g.Name(), res.Generated, budget)
		}
		if got > set+c.slack {
			t.Errorf("%s: a run allocates %d bytes, want at most one %d-byte candidate set plus %d", c.g.Name(), got, set, c.slack)
		}
	}
}

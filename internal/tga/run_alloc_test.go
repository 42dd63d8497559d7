//go:build !race && !poison

package tga_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/det"
	"seedscan/internal/tga/sixtree"
	"seedscan/internal/world"
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

// candidateListBytes is what a run without a prober spends on its output,
// RunResult.Candidates: one list with room for the budget, 16 bytes an
// address.
func candidateListBytes(budget int) uint64 { return 16 * uint64(budget) }

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
// to the budget, and the candidate list that is its output, plus a slack
// for the generator's run state (cursor and enumerator slabs, DET's
// pending-proposal map, which holds one batch at most) and the batch
// buffer. That costs 950 KiB for 6Tree, whose run grows the scratch, and
// 343 KiB for DET, which takes the scratch 6Tree's run gave back; each
// slack adds less than a driver-side copy of every
// batch (188 KiB) or a second dedup set (320 KiB presized, more grown by
// doubling), so either fails the pin. The budget is a whole number of
// batches and no seed is excluded, so the run's set holds exactly the
// budget and never grows.
func TestRunCandidateBookkeepingIsOneSet(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget, kib = 12000, 1 << 10
	seeds := allocSeeds()
	set := bytesOf(func() { ipaddr.NewSetCap(budget) })
	list := candidateListBytes(budget)
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
		if got > set+list+c.slack {
			t.Errorf("%s: a run allocates %d bytes, want at most one %d-byte candidate set, its %d-byte candidate list and %d", c.g.Name(), got, set, list, c.slack)
		}
	}
}

// TestWarmRunAllocatesNoCandidateSet runs 6Tree and DET as
// TestRunCandidateBookkeepingIsOneSet does, but warm: once runs at the
// budget have sized every set on the driver's free list, and after two
// collections, a run stays under its candidate list and the generator's
// slack, without the candidate set's bytes — it takes its set off the free
// list. A sync.Pool would lose its entries to them and fail the pin.
func TestWarmRunAllocatesNoCandidateSet(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget, kib = 12000, 1 << 10
	seeds := allocSeeds()
	list := candidateListBytes(budget)
	for _, c := range []struct {
		newGen func() tga.ModelBuilder
		slack  uint64
	}{
		{func() tga.ModelBuilder { return sixtree.New() }, 896 * kib},
		{func() tga.ModelBuilder { return det.New() }, 896 * kib},
	} {
		g := c.newGen()
		m, err := g.BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tga.RunConfig{Budget: budget, BatchSize: 1000, Models: minedModels{g.ModelParams(): m}}
		run := func(g tga.ModelBuilder) {
			res, err := tga.RunContext(context.Background(), g, seeds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generated != budget {
				t.Fatalf("%s generated %d of %d", g.Name(), res.Generated, budget)
			}
		}
		// Each run takes the oldest set off the list and puts it back last,
		// so one run per entry sizes them all.
		for i := 0; i <= memo.FreeListLen; i++ {
			run(c.newGen())
		}
		runtime.GC() // twice: a sync.Pool's entries outlive one collection
		runtime.GC()
		g = c.newGen()
		if got := bytesOf(func() { run(g) }); got > list+c.slack {
			t.Errorf("%s: a warm run allocates %d bytes, want at most its %d-byte candidate list and %d, with no candidate set", g.Name(), got, list, c.slack)
		}
	}
}

// TestWarmScannedRunAllocatesNoBatchBuffers runs 6Tree warm, as
// TestWarmRunAllocatesNoCandidateSet does, but through a real scanner and
// an online dealiaser whose verdicts the earlier runs cached: the run's
// twelve batches append their results into the run's recycled scratch
// and are dealiased in place there, and 6Tree appends its batches into
// the scratch from its lent cursor slab. A run allocates what a scan
// costs besides its results (its goroutines), small change and the
// exact-size hit list: about 142 KiB with 43 KiB of hits. It allocates no
// per-batch result, clean, proposal or hit-growth buffer and no scheduler
// state; per-batch results alone cost 295 KiB (twelve batches of 1000
// 24-byte results), and with those buffers a run allocated 949 KiB.
func TestWarmScannedRunAllocatesNoBatchBuffers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget, kib = 12000, 1 << 10
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.ScanEpoch)
	sc := scanner.New(w.Link(), scanner.WithSecret(17))
	seeds := tga.CanonicalSeeds(w.NewSampler(5).ActiveHosts(400, proto.ICMP))
	m, err := sixtree.New().BuildModel(seeds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tga.RunConfig{
		Budget:    budget,
		BatchSize: 1000,
		Proto:     proto.ICMP,
		Prober:    sc,
		Dealiaser: alias.New(alias.ModeOnline, nil, sc, proto.ICMP, 5, nil),
		Models:    minedModels{sixtree.New().ModelParams(): m},
	}
	var res *tga.RunResult
	run := func() {
		if res, err = tga.RunContext(context.Background(), sixtree.New(), seeds, cfg); err != nil {
			t.Fatal(err)
		}
		if res.Generated != budget {
			t.Fatalf("generated %d of %d", res.Generated, budget)
		}
	}
	for i := 0; i <= memo.FreeListLen; i++ {
		run()
	}
	runtime.GC()
	runtime.GC()
	got := bytesOf(run)
	hitBytes := uint64(len(res.Hits)+len(res.AliasedHits)) * 16
	if len(res.Hits) == 0 {
		t.Fatal("no hits: the test needs some")
	}
	if limit := hitBytes + 192*kib; got > limit {
		t.Errorf("a warm scanned run allocates %d bytes, want at most %d (hits %d + 192 KiB)", got, limit, hitBytes)
	}
	t.Logf("a warm scanned run allocates %d bytes, %d of them hits", got, hitBytes)
}

// TestWarmRunAllocatesNoSchedulerState runs DET (LeafSearch) and 6Tree
// (Expander) warm, as TestWarmRunAllocatesNoCandidateSet does: the
// driver's scratch lends each its cursor slab, enumerators, rankings or
// heap, pending proposals and batch buffer, so a run allocates its
// candidate list and small change beside it: about 19 KiB of generator
// and scheduler structs, the twelve batches' span attributes and the
// run's profiler labels. Scheduler state grown afresh costs far more than
// the slack: DET's cursor and enumerator slabs over its 1,287 leaves alone
// are 301 KiB, 6Tree's over 1,453 regions 340 KiB, and a batch buffer per
// batch 188 KiB.
func TestWarmRunAllocatesNoSchedulerState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget, slack = 12000, 32 << 10
	seeds := allocSeeds()
	list := candidateListBytes(budget)
	for _, newGen := range []func() tga.ModelBuilder{
		func() tga.ModelBuilder { return det.New() },
		func() tga.ModelBuilder { return sixtree.New() },
	} {
		g := newGen()
		m, err := g.BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tga.RunConfig{Budget: budget, BatchSize: 1000, Models: minedModels{g.ModelParams(): m}}
		run := func(g tga.ModelBuilder) {
			res, err := tga.RunContext(context.Background(), g, seeds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generated != budget {
				t.Fatalf("%s generated %d of %d", g.Name(), res.Generated, budget)
			}
		}
		for i := 0; i <= memo.FreeListLen; i++ {
			run(newGen())
		}
		g = newGen()
		got := bytesOf(func() { run(g) })
		if got > list+slack {
			t.Errorf("%s: a warm run allocates %d bytes, want at most its %d-byte candidate list and %d", g.Name(), got, list, slack)
		}
		t.Logf("%s: a warm run allocates %d bytes beside its candidate list", g.Name(), got-list)
	}
}

package sixprob

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/tga"
)

// testSeeds builds a structured seed set: a few /64s with low-entropy
// host patterns, the shape 6Prob's trie is meant to exploit.
func testSeeds(n int) []ipaddr.Addr {
	var out []ipaddr.Addr
	for i := 0; len(out) < n; i++ {
		a := ipaddr.MustParse(fmt.Sprintf("2001:db8:%x:%x::%x", i%7, i%13, i))
		out = append(out, a)
	}
	return tga.CanonicalSeeds(out)
}

func drain(t *testing.T, g tga.Generator, seeds []ipaddr.Addr, n int) []ipaddr.Addr {
	t.Helper()
	if err := g.Init(seeds); err != nil {
		t.Fatal(err)
	}
	var out []ipaddr.Addr
	for len(out) < n {
		b := g.(*Generator).NextBatch(n - len(out))
		if len(b) == 0 {
			break
		}
		out = append(out, b...)
	}
	return out
}

func TestDeterministicDraws(t *testing.T) {
	seeds := testSeeds(200)
	a := drain(t, New(), seeds, 500)
	b := drain(t, New(), seeds, 500)
	if len(a) == 0 {
		t.Fatal("no candidates")
	}
	if len(a) != len(b) {
		t.Fatalf("draw lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCandidatesAreNotSeeds(t *testing.T) {
	seeds := testSeeds(100)
	seedSet := ipaddr.NewSet(seeds...)
	got := drain(t, New(), seeds, 1000)
	if len(got) < 100 {
		t.Fatalf("only %d candidates from 100 seeds", len(got))
	}
	dup := ipaddr.NewSet()
	for _, a := range got {
		if seedSet.Contains(a) {
			t.Fatalf("candidate %v is a seed", a)
		}
		if dup.Contains(a) {
			t.Fatalf("candidate %v emitted twice", a)
		}
		dup.Add(a)
	}
}

// TestModelRunStateSplit pins the ModelBuilder contract: Init and
// BuildModel+InitFromModel draw identically, and a shared model instance
// is not written through by a run.
func TestModelRunStateSplit(t *testing.T) {
	seeds := testSeeds(150)
	direct := drain(t, New(), seeds, 400)

	builder := New()
	m, err := builder.BuildModel(seeds)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		g := New()
		if err := g.InitFromModel(m, seeds); err != nil {
			t.Fatal(err)
		}
		var got []ipaddr.Addr
		for len(got) < 400 {
			b := g.NextBatch(400 - len(got))
			if len(b) == 0 {
				break
			}
			got = append(got, b...)
		}
		if len(got) != len(direct) {
			t.Fatalf("round %d: %d draws vs %d direct", round, len(got), len(direct))
		}
		for i := range got {
			if got[i] != direct[i] {
				t.Fatalf("round %d draw %d: %v vs %v", round, i, got[i], direct[i])
			}
		}
	}
}

// TestHighestProbabilityFirst checks the drawing order is sensible: the
// very first candidate must be a single mutation of the densest seed
// structure, never a MaxMutations-deep rewrite.
func TestHighestProbabilityFirst(t *testing.T) {
	seeds := testSeeds(120)
	got := drain(t, New(), seeds, 50)
	if len(got) == 0 {
		t.Fatal("no candidates")
	}
	best := got[0]
	minDist := ipaddr.NybbleCount + 1
	for _, s := range seeds {
		d := 0
		for i := 0; i < ipaddr.NybbleCount; i++ {
			if s.Nybble(i) != best.Nybble(i) {
				d++
			}
		}
		if d < minDist {
			minDist = d
		}
	}
	if minDist != 1 {
		t.Fatalf("first draw is %d nybbles from the nearest seed, want 1", minDist)
	}
}

func TestEmptyAndTinySeeds(t *testing.T) {
	if err := New().Init(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
	one := []ipaddr.Addr{ipaddr.MustParse("2001:db8::1")}
	got := drain(t, New(), one, 50)
	if len(got) == 0 {
		t.Fatal("single seed produced nothing")
	}
	for _, a := range got {
		if a == one[0] {
			t.Fatal("single seed re-emitted")
		}
	}
}

// TestSelectBestMatchesSort pins the prune's selection to a full sort:
// on candidates whose lp and tie collide heavily (so insertion order often
// decides), the kept set, the floor, the freed slots and the order the
// survivors pop in must all be what sorting the whole frontier gives.
// Inputs arrive shuffled, best-first and worst-first.
func TestSelectBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(200)
		if trial%40 == 0 {
			n = 2 + rng.Intn(20000)
		}
		keep := 1 + rng.Intn(n-1)
		var h candHeap
		ticks := rng.Perm(n)
		for i := 0; i < n; i++ {
			h.slab = append(h.slab, cand{tick: uint64(ticks[i])})
			h.heap = append(h.heap, key{
				lp:   -float64(rng.Intn(1 + trial%4)),
				tie:  uint64(rng.Intn(1 + trial%3)),
				slot: int32(i),
			})
		}
		sorted := slices.Clone(h.heap)
		sort.Slice(sorted, func(i, j int) bool { return h.before(&sorted[i], &sorted[j]) })
		switch trial % 3 {
		case 0:
			rng.Shuffle(n, func(i, j int) { h.heap[i], h.heap[j] = h.heap[j], h.heap[i] })
		case 1:
			copy(h.heap, sorted)
		case 2:
			for i, k := range sorted {
				h.heap[n-1-i] = k
			}
		}
		want := sorted[:keep]

		floor := h.prune(keep)
		if floor != want[keep-1].lp {
			t.Fatalf("trial %d (n=%d keep=%d): floor %v, want %v", trial, n, keep, floor, want[keep-1].lp)
		}
		freed, dropped := slices.Clone(h.free), []int32{}
		for _, k := range sorted[keep:] {
			dropped = append(dropped, k.slot)
		}
		slices.Sort(freed)
		slices.Sort(dropped)
		if !slices.Equal(freed, dropped) {
			t.Fatalf("trial %d (n=%d keep=%d): freed slots differ from the sort's tail", trial, n, keep)
		}
		for i, k := range want {
			if c, lp := h.pop(); c.tick != h.slab[k.slot].tick || lp != k.lp {
				t.Fatalf("trial %d (n=%d keep=%d): pop %d is tick %d, want %d", trial, n, keep, i, c.tick, h.slab[k.slot].tick)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d entries left after %d pops", trial, h.Len(), keep)
		}
	}
}

// TestBeamOfOne pins the smallest beams: a prune keeps at least one
// candidate (a beam of one used to prune to none and index past the
// frontier), and the draws stay deterministic and seed-free.
func TestBeamOfOne(t *testing.T) {
	seeds := testSeeds(200)
	seedSet := ipaddr.NewSet(seeds...)
	for _, beam := range []int{1, 2, 3} {
		mk := func() *Generator {
			g := New()
			g.Beam = beam
			return g
		}
		a := drain(t, mk(), seeds, 300)
		b := drain(t, mk(), seeds, 300)
		if len(a) == 0 || !slices.Equal(a, b) {
			t.Fatalf("beam %d: %d and %d draws, want equal and non-empty", beam, len(a), len(b))
		}
		for _, x := range a {
			if seedSet.Contains(x) {
				t.Fatalf("beam %d: candidate %v is a seed", beam, x)
			}
		}
	}
}

// TestBeamPruneKeepsDeterminism forces the beam cap low enough to prune
// and checks draws stay reproducible.
func TestBeamPruneKeepsDeterminism(t *testing.T) {
	seeds := testSeeds(200)
	mk := func() *Generator {
		g := New()
		g.Beam = 64
		return g
	}
	a := drain(t, mk(), seeds, 300)
	b := drain(t, mk(), seeds, 300)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs under pruning", i)
		}
	}
}

// TestTakeBackRecyclesTheFrontier takes the driver's scratch back from 6Prob
// runs of two beams: the generator then proposes nothing, only a
// default-size frontier goes on the free list, a second take-back puts
// nothing there, the next default run takes the kept frontier and draws
// what a fresh one does, and the list never holds more than memo.FreeListLen.
func TestTakeBackRecyclesTheFrontier(t *testing.T) {
	if !freeListsKeep() {
		t.Skip("this build's free lists drop or withhold values")
	}
	empty := func() {
		for {
			if _, ok := frontiers.Get(); !ok {
				break
			}
		}
	}
	empty()
	t.Cleanup(empty)
	seeds := testSeeds(300)
	want := drain(t, New(), seeds, 500)
	for _, c := range []struct {
		beam int
		kept int // frontiers on the free list after the take-back
	}{
		{defaultBeam, 1},
		{64, 1},
	} {
		g := New()
		g.Beam = c.beam
		if err := g.Init(seeds); err != nil {
			t.Fatal(err)
		}
		g.Lend(new(tga.Scratch))
		if len(g.NextBatch(100)) == 0 {
			t.Fatalf("beam %d: no candidates", c.beam)
		}
		g.Lend(nil)
		if got := g.NextBatch(100); len(got) != 0 {
			t.Fatalf("beam %d: %d candidates after the set was taken back", c.beam, len(got))
		}
		if frontiersKept() != c.kept {
			t.Fatalf("beam %d: %d frontiers kept, want %d", c.beam, frontiersKept(), c.kept)
		}
		g.Lend(nil)
		if frontiersKept() != c.kept {
			t.Fatalf("beam %d: a second take-back kept a frontier", c.beam)
		}
	}
	if got := drain(t, New(), seeds, 500); !slices.Equal(got, want) {
		t.Fatal("a recycled frontier draws differently from a fresh one")
	}
	if frontiersKept() != 0 {
		t.Fatalf("%d frontiers kept after a default run took one, want 0", frontiersKept())
	}

	grown := newCandHeap(0)
	grown.heap = append(grown.heap, make([]key, defaultBeam+2)...)
	grown.release()
	if frontiersKept() != 0 {
		t.Fatal("a frontier grown past the default size was kept")
	}
	heaps := make([]candHeap, 2*memo.FreeListLen)
	for i := range heaps {
		heaps[i] = newCandHeap(defaultBeam)
	}
	for _, h := range heaps {
		h.release()
	}
	if frontiersKept() != memo.FreeListLen {
		t.Fatalf("%d frontiers kept, want at most %d", frontiersKept(), memo.FreeListLen)
	}
}

// frontiersKept counts the frontiers the free list holds, leaving it as
// it was.
func frontiersKept() int {
	var kept []candHeap
	for {
		h, ok := frontiers.Get()
		if !ok {
			break
		}
		kept = append(kept, h)
	}
	for _, h := range kept {
		frontiers.Put(h)
	}
	return len(kept)
}

// freeListsKeep reports whether this build's free lists keep what they
// are given. A poisoned race build drops some of it and SEEDSCAN_RECYCLE=off
// lends none back, on purpose; a test that counts a list's entries cannot
// hold there.
func freeListsKeep() bool {
	l := memo.NewFreeList[int](nil)
	for i := 0; i < 64; i++ {
		l.Put(i)
		if _, ok := l.Get(); !ok {
			return false
		}
	}
	return true
}

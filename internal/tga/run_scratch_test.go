package tga

import (
	"context"
	"slices"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/memo"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// appendProber scans through AppendScan, into the driver's buffer: an
// address answers when its low byte is below 0x40. It cancels the run
// during its after-th scan when cancel is set, and still completes that
// scan.
type appendProber struct {
	nullProber
	cancel context.CancelFunc
	after  int
}

func (p *appendProber) AppendScan(_ context.Context, dst []scanner.Result, ts []ipaddr.Addr, pr proto.Protocol) ([]scanner.Result, error) {
	p.calls++
	if p.cancel != nil && p.calls == p.after {
		p.cancel()
	}
	for _, a := range ts {
		r := scanner.Result{Addr: a, Proto: pr, Status: scanner.StatusSilent}
		if a.Lo()&0xff < 0x40 {
			r.Status = scanner.StatusActive
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// inPlaceDealiaser partitions in place, as alias.Dealiaser does: an
// address whose low byte is below 0x10 is aliased.
type inPlaceDealiaser struct{}

func (inPlaceDealiaser) Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	clean = addrs[:0]
	for _, a := range addrs {
		if a.Lo()&0xff < 0x10 {
			aliased = append(aliased, a)
		} else {
			clean = append(clean, a)
		}
	}
	return clean, aliased
}

// wantHits is what appendProber and inPlaceDealiaser make of addrs.
func wantHits(addrs []ipaddr.Addr) (hits, aliased []ipaddr.Addr) {
	for _, a := range addrs {
		switch b := a.Lo() & 0xff; {
		case b < 0x10:
			aliased = append(aliased, a)
		case b < 0x40:
			hits = append(hits, a)
		}
	}
	return hits, aliased
}

// TestRecycledScratchLeavesResultsAlone runs A, then B and a cancelled C
// on the scratch A gave back, with the run's free list holding nothing
// else. A's hits and aliased hits, and B's, are their own exact-size
// copies, unchanged by the runs after them, and C returns the hits of
// the batches it finished.
func TestRecycledScratchLeavesResultsAlone(t *testing.T) {
	empty := func() {
		for {
			if _, ok := runScratches.Get(); !ok {
				return
			}
		}
	}
	empty()
	t.Cleanup(empty)
	run := func(ctx context.Context, addrs []ipaddr.Addr, pr *appendProber) (*RunResult, error) {
		cfg := RunConfig{Budget: len(addrs), BatchSize: 256, Prober: pr, Dealiaser: inPlaceDealiaser{}}
		res, err := RunContext(ctx, &staticGen{addrs: addrs}, nil, cfg)
		if len(runScratches) != 1 {
			t.Fatalf("%d scratch entries kept, want the one every run shares", len(runScratches))
		}
		return res, err
	}
	check := func(name string, res *RunResult, addrs []ipaddr.Addr) {
		t.Helper()
		hits, aliased := wantHits(addrs)
		if !slices.Equal(res.Hits, hits) || !slices.Equal(res.AliasedHits, aliased) {
			t.Fatalf("%s: %d hits and %d aliased, want %d and %d", name, len(res.Hits), len(res.AliasedHits), len(hits), len(aliased))
		}
		if cap(res.Hits) != len(res.Hits) || cap(res.AliasedHits) != len(res.AliasedHits) {
			t.Fatalf("%s: hit lists are not exact-size copies", name)
		}
	}

	addrsA := manyAddrs(2000)
	a, err := run(context.Background(), addrsA, &appendProber{})
	if err != nil {
		t.Fatal(err)
	}
	check("A", a, addrsA)

	addrsB := make([]ipaddr.Addr, 3000)
	for i := range addrsB {
		addrsB[i] = ipaddr.MustParse("2001:db8:b::").AddLo(uint64(i))
	}
	b, err := run(context.Background(), addrsB, &appendProber{})
	if err != nil {
		t.Fatal(err)
	}
	check("B", b, addrsB)
	check("A after B", a, addrsA)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrsC := manyAddrs(2000)
	for i := range addrsC {
		addrsC[i] = addrsC[i].AddLo(0x20) // other hits than A's
	}
	c, err := run(ctx, addrsC, &appendProber{cancel: cancel, after: 3})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Generated != 3*256 {
		t.Fatalf("cancelled run generated %d, want 3 batches", c.Generated)
	}
	check("cancelled C", c, addrsC[:3*256])
	check("A after C", a, addrsA)
	check("B after C", b, addrsB)
}

// TestOversizedScratchIsNotKept pins the keep rule on the sets' storage,
// which Reset keeps and Len does not show: scratch whose candidate set
// was sized, or whose aliased-hit set was filled, past memo.MaxKeptEntries in
// its run is dropped however few entries the sets hold at its end.
func TestOversizedScratchIsNotKept(t *testing.T) {
	empty := func() {
		for {
			if _, ok := runScratches.Get(); !ok {
				return
			}
		}
	}
	empty()
	t.Cleanup(empty)
	putScratch(&runScratch{seen: ipaddr.NewSet(), most: memo.MaxKeptEntries + 1})
	if len(runScratches) != 0 {
		t.Fatal("scratch sized past memo.MaxKeptEntries was kept")
	}
	putScratch(&runScratch{seen: ipaddr.NewSet(), most: memo.MaxKeptEntries})
	if len(runScratches) != 1 {
		t.Fatal("scratch sized at memo.MaxKeptEntries was not kept")
	}
}

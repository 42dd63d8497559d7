package scanner

import (
	"context"
	"slices"
	"testing"
	"unsafe"

	"seedscan/internal/ipaddr"
	"seedscan/internal/probe"
	"seedscan/internal/proto"
	"seedscan/internal/world"
)

// quietLink answers nothing; every target stays silent.
type quietLink struct{}

func (quietLink) ExchangeBatchInto(pkts [][]byte, rb *probe.ReplyBuf) { rb.Reset(len(pkts)) }

// addrRange returns n consecutive addresses in unrouted space.
func addrRange(n int) []ipaddr.Addr {
	out := make([]ipaddr.Addr, n)
	base := ipaddr.MustParse("2001:db8:57a7::")
	for i := range out {
		out[i] = base.AddLo(uint64(i))
	}
	return out
}

// TestStatsMergeEqualsWholeRun splits one target list into shards scanned
// by independent scanners and checks that summing the per-shard snapshots
// with Stats.Add reproduces the whole-run snapshot exactly — the property
// the cluster merger depends on. Per-target outcomes are pure functions of
// (target, secret, world), so the partitioning must not matter.
func TestStatsMergeEqualsWholeRun(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0.05})
	w.SetEpoch(world.ScanEpoch)
	samp := w.NewSampler(1234)
	targets := samp.ActiveHosts(300, proto.ICMP)
	targets = append(targets, addrRange(200)...)

	for _, p := range []proto.Protocol{proto.ICMP, proto.TCP443} {
		whole := New(w.Link(), WithSecret(7))
		whole.Scan(targets, p)
		want := whole.Stats().Values()

		merged := &Stats{}
		const shards = 4
		for i := 0; i < shards; i++ {
			part := New(w.Link(), WithSecret(7))
			part.Scan(targets[i*len(targets)/shards:(i+1)*len(targets)/shards], p)
			merged.Add(part.Stats())
		}
		if got := merged.Values(); got != want {
			t.Errorf("%v: merged shard stats %v != whole-run stats %v", p, got, want)
		}
	}
}

// TestStatsSubIsSnapshotDelta checks that Sub turns two snapshots of one
// scanner into the contribution of the work between them.
func TestStatsSubIsSnapshotDelta(t *testing.T) {
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.ScanEpoch)
	s := New(w.Link(), WithSecret(7))
	targets := addrRange(128)

	s.Scan(targets[:64], proto.ICMP)
	before := s.Stats()
	s.Scan(targets[64:], proto.ICMP)
	after := s.Stats()
	after.Sub(before)

	fresh := New(w.Link(), WithSecret(7))
	fresh.Scan(targets[64:], proto.ICMP)
	if got, want := after.Values(), fresh.Stats().Values(); got != want {
		t.Errorf("snapshot delta %v != fresh-run stats %v", got, want)
	}
}

// TestPlanOrderMatchesScanOrder pins PlanOrder to the order ScanContext
// actually probes and returns results in.
func TestPlanOrderMatchesScanOrder(t *testing.T) {
	targets := addrRange(500)
	// Duplicate some entries: PlanOrder must dedup exactly like Scan.
	targets = append(targets, targets[:50]...)

	s := New(quietLink{}, WithSecret(99))
	res := s.Scan(targets, proto.TCP80)
	plan := PlanOrder(nil, 99, true, targets, proto.TCP80)
	if len(res) != len(plan) {
		t.Fatalf("plan has %d targets, scan returned %d results", len(plan), len(res))
	}
	for i := range plan {
		if res[i].Addr != plan[i] {
			t.Fatalf("order diverges at %d: plan %v, scan %v", i, plan[i], res[i].Addr)
		}
	}
}

// TestPlanOrderAppendsToDst pins PlanOrder's dst: the plan is appended
// after what dst holds, in dst's memory when it has room, and equals the
// plan into nil whatever a recycled dst held before.
func TestPlanOrderAppendsToDst(t *testing.T) {
	targets := addrRange(300)
	targets = append(targets, targets[:30]...)
	want := PlanOrder(nil, 99, true, targets, proto.UDP53)

	head := ipaddr.MustParse("2001:db8:ffff::1")
	dst := make([]ipaddr.Addr, 1, 1+len(targets))
	dst[0] = head
	got := PlanOrder(dst, 99, true, targets, proto.UDP53)
	if got[0] != head || !slices.Equal(got[1:], want) {
		t.Fatal("PlanOrder into a non-empty dst is not dst followed by the plan")
	}
	if &got[0] != &dst[0] {
		t.Fatal("PlanOrder grew a dst that had room for every target")
	}
	if again := PlanOrder(got[:0], 99, true, targets, proto.UDP53); !slices.Equal(again, want) {
		t.Fatal("PlanOrder into a recycled dst differs from PlanOrder into nil")
	}
}

// TestScanContextIsScanPlannedOverPlanOrder pins the seam a cluster splits
// a scan at: ScanContext is ScanPlanned over PlanOrder — same results in
// the same order, same stats — and ScanPlanned probes its list as given,
// mutating neither it nor the caller's targets.
func TestScanContextIsScanPlannedOverPlanOrder(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	targets := append(w.NewSampler(9).Hosts(300), addrRange(100)...)
	targets = append(targets, targets[:40]...)
	before := slices.Clone(targets)

	for _, p := range proto.All {
		whole := New(w.Link(), WithSecret(99))
		want, err := whole.ScanContext(context.Background(), targets, p)
		if err != nil {
			t.Fatal(err)
		}
		plan := PlanOrder(nil, 99, true, targets, p)
		asPlanned := slices.Clone(plan)
		halves := New(w.Link(), WithSecret(99))
		got, err := halves.ScanPlanned(context.Background(), nil, plan, p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v: ScanPlanned(PlanOrder(targets)) differs from ScanContext(targets)", p)
		}
		if g, w := halves.Stats().Values(), whole.Stats().Values(); g != w {
			t.Fatalf("%v: stats %v != %v", p, g, w)
		}
		if !slices.Equal(plan, asPlanned) || !slices.Equal(targets, before) {
			t.Fatalf("%v: scan rewrote its input", p)
		}
	}

	// As given means as given: no dedup, no shuffle.
	twice := []ipaddr.Addr{targets[0], targets[1], targets[0]}
	res, _ := New(w.Link(), WithSecret(99)).ScanPlanned(context.Background(), nil, twice, proto.ICMP)
	if len(res) != 3 || res[0].Addr != twice[0] || res[1].Addr != twice[1] || res[2] != res[0] {
		t.Fatalf("ScanPlanned re-planned its input: %+v", res)
	}

	// A cancelled scan returns the probed prefix of the planned order.
	plan := PlanOrder(nil, 99, true, targets, proto.ICMP)
	link, started, release := gatedLink(w.Link())
	s := New(link, WithSecret(99), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var cut []Result
	var err error
	go func() {
		cut, err = s.ScanPlanned(ctx, nil, plan, proto.ICMP)
		close(done)
	}()
	<-started
	cancel()
	close(release)
	<-done
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cut) == 0 || len(cut) >= len(plan) {
		t.Fatalf("cancelled scan returned %d results of %d planned", len(cut), len(plan))
	}
	for i, r := range cut {
		if r.Addr != plan[i] || r.Attempts == 0 {
			t.Fatalf("result %d is not the probed plan[%d]: %+v, want %v", i, i, r, plan[i])
		}
	}
}

// TestScanPlannedAppendsToDst pins ScanPlanned's append contract: a
// non-empty dst keeps its prefix and gains exactly the results a nil dst
// would get, written in place when dst has room; a cancelled scan
// returns the prefix plus the probed part of planned.
func TestScanPlannedAppendsToDst(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	plan := PlanOrder(nil, 99, true, append(w.NewSampler(9).Hosts(300), addrRange(100)...), proto.ICMP)
	prefix := New(w.Link(), WithSecret(99)).Scan(addrRange(5), proto.TCP80)
	want, err := New(w.Link(), WithSecret(99)).ScanPlanned(context.Background(), nil, plan, proto.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	want = append(slices.Clone(prefix), want...)

	for _, room := range []int{0, len(plan)} {
		dst := append(make([]Result, 0, len(prefix)+room), prefix...)
		got, err := New(w.Link(), WithSecret(99)).ScanPlanned(context.Background(), dst, plan, proto.ICMP)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("room %d: ScanPlanned(dst) != append(prefix, ScanPlanned(nil)...)", room)
		}
		if room > 0 && &got[0] != &dst[0] {
			t.Fatalf("room %d: ScanPlanned reallocated a dst with room for its results", room)
		}
	}

	link, started, release := gatedLink(w.Link())
	s := New(link, WithSecret(99), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var cut []Result
	go func() {
		cut, err = s.ScanPlanned(ctx, slices.Clone(prefix), plan, proto.ICMP)
		close(done)
	}()
	<-started
	cancel()
	close(release)
	<-done
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := len(cut) - len(prefix)
	if n <= 0 || n >= len(plan) || !slices.Equal(cut[:len(prefix)], prefix) {
		t.Fatalf("cancelled scan returned %d results on a %d-result prefix of %d planned", len(cut), len(prefix), len(plan))
	}
	if !slices.Equal(cut[len(prefix):], want[len(prefix):len(cut)]) {
		t.Fatalf("cancelled scan's results are not the probed prefix of planned")
	}
}

// TestResultIs24Bytes keeps Result free of padding between its fields:
// Attempts is one byte, not an int, which would make it 32 bytes.
func TestResultIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Result{}); n != 24 {
		t.Fatalf("Result is %d bytes, want 24", n)
	}
}

// TestActiveAddrsExactSize pins ActiveAddrs to one slice of exactly the
// hit count, holding the hits in result order.
func TestActiveAddrsExactSize(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	res := New(w.Link(), WithSecret(99)).Scan(append(w.NewSampler(9).ActiveHosts(200, proto.ICMP), addrRange(300)...), proto.ICMP)
	var want []ipaddr.Addr
	for _, r := range res {
		if r.Active() {
			want = append(want, r.Addr)
		}
	}
	if len(want) == 0 || len(want) == len(res) {
		t.Fatalf("%d hits of %d results: the test needs both", len(want), len(res))
	}
	got := ActiveAddrs(res)
	if !slices.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("ActiveAddrs: len %d cap %d, want the %d hits in result order", len(got), cap(got), len(want))
	}
	if allocs := testing.AllocsPerRun(20, func() { ActiveAddrs(res) }); allocs > 1 {
		t.Fatalf("ActiveAddrs made %v allocations, want at most 1", allocs)
	}
	if ActiveAddrs(res[:0]) != nil {
		t.Fatal("ActiveAddrs of no results is not nil")
	}
}

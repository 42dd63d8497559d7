package scanner

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/world"
)

// withDups returns hosts followed by its first dups entries again.
func withDups(hosts []ipaddr.Addr, dups int) []ipaddr.Addr {
	return append(slices.Clip(hosts), hosts[:dups]...)
}

// TestScanContextResultsOutliveScratch pins what a call may keep: the
// results ScanContext returns, and the hits ScanActive returns, belong to
// the caller and stay unchanged while later calls on the same scanner
// recycle the scratch they were planned and scanned in.
func TestScanContextResultsOutliveScratch(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	a := withDups(append(w.NewSampler(3).ActiveHosts(200, proto.ICMP), addrRange(300)...), 50)
	// b is shorter than a, so its scans fit in whatever held a's; c is
	// longer, so they do not.
	b := withDups(append(w.NewSampler(4).ActiveHosts(100, proto.ICMP), addrRange(150)[75:]...), 20)
	c := withDups(append(w.NewSampler(5).ActiveHosts(900, proto.ICMP), addrRange(2000)...), 100)

	s := New(w.Link(), WithSecret(21))
	resA, err := s.ScanContext(context.Background(), a, proto.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	hitsA := s.ScanActive(a, proto.ICMP)
	wantRes, wantHits := slices.Clone(resA), slices.Clone(hitsA)
	if len(wantHits) == 0 {
		t.Fatal("the first list has no hits: the test needs some")
	}

	for _, l := range [][]ipaddr.Addr{b, c, b} {
		s.ScanActive(l, proto.ICMP)
		if _, err := s.ScanContext(context.Background(), l, proto.ICMP); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(resA, wantRes) {
		t.Fatal("ScanContext's results changed under later calls on the same scanner")
	}
	if !slices.Equal(hitsA, wantHits) {
		t.Fatal("ScanActive's hits changed under later calls on the same scanner")
	}
}

// TestConcurrentScansShareNoScratch has eight goroutines mix ScanActive
// and ScanContext on one scanner over lists of 0, 1, 63, 64, 65 and 5,000
// targets, duplicates included, so scratch planned for one size is reused
// for every other. Each call must equal a serial scan on a fresh scanner.
func TestConcurrentScansShareNoScratch(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	hosts := w.NewSampler(11).Hosts(4000)
	hosts = append(hosts, addrRange(500)...)
	lists := [][]ipaddr.Addr{
		nil,
		hosts[:1],
		withDups(hosts[100:150], 13),
		withDups(hosts[200:260], 4),
		withDups(hosts[300:365], 0),
		withDups(hosts[:4500], 500),
	}
	type want struct {
		results []Result
		hits    []ipaddr.Addr
	}
	wants := make([]want, len(lists))
	for i, l := range lists {
		res, err := New(w.Link(), WithSecret(5)).ScanContext(context.Background(), l, proto.TCP80)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{res, New(w.Link(), WithSecret(5)).ScanActive(l, proto.TCP80)}
	}

	shared := New(w.Link(), WithSecret(5))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for k := range lists {
					i := (g + k) % len(lists)
					if (g+k+r)%2 == 0 {
						if got := shared.ScanActive(lists[i], proto.TCP80); !slices.Equal(got, wants[i].hits) {
							t.Errorf("goroutine %d: ScanActive of %d targets differs from a serial scan", g, len(lists[i]))
						}
						continue
					}
					got, err := shared.ScanContext(context.Background(), lists[i], proto.TCP80)
					if err != nil || !slices.Equal(got, wants[i].results) {
						t.Errorf("goroutine %d: ScanContext of %d targets differs from a serial scan (err %v)", g, len(lists[i]), err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtremeOptionsScanLikeDefaults gives the chunk and worker options
// values at the edge of int: each scan must finish, and return what the
// defaults return. A claim cursor that overflows panics and a worker
// count that overflows never returns from New, so each scan runs under
// a deadline.
func TestExtremeOptionsScanLikeDefaults(t *testing.T) {
	w := testWorld(t)
	w.SetEpoch(world.ScanEpoch)
	targets := withDups(append(w.NewSampler(8).Hosts(300), addrRange(100)...), 40)
	want := New(w.Link(), WithSecret(4)).Scan(targets, proto.ICMP)

	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"chunk=MaxInt>>1", withProbeChunk(math.MaxInt >> 1)},
		{"chunk=MaxInt", withProbeChunk(math.MaxInt)},
		{"workers=1<<40", WithWorkers(1 << 40)},
		{"workers=MaxInt", WithWorkers(math.MaxInt)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan []Result, 1)
			go func() { done <- New(w.Link(), WithSecret(4), tc.opt).Scan(targets, proto.ICMP) }()
			select {
			case got := <-done:
				if !slices.Equal(got, want) {
					t.Fatalf("%s: results differ from the defaults'", tc.name)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: scan did not finish in 30s", tc.name)
			}
		})
	}
}

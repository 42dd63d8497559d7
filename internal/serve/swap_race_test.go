package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
)

// raceSnapshot builds generation-distinguishable content: generation g
// contains exactly the addresses 2001:db8::0 .. ::g-1, all responsive.
// Any response mixing two generations is therefore detectable from the
// response alone: the reported generation fully determines membership.
func raceSnapshot(g int) *hitlist.Snapshot {
	snap := &hitlist.Snapshot{
		BuiltAt:    time.Unix(0, int64(g)),
		Input:      g,
		Responsive: ipaddr.NewSet(),
	}
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < g; i++ {
		snap.Responsive.Add(base.AddLo(uint64(i)))
	}
	return snap
}

// checkConsistent asserts one response is internally single-generation:
// address i must be found iff i < generation, and the header generation
// must match the body generation.
func checkConsistent(gen uint64, headerGen string, results []lookupResult, probes []int) error {
	if headerGen != strconv.FormatUint(gen, 10) {
		return fmt.Errorf("header generation %s != body generation %d", headerGen, gen)
	}
	for k, idx := range probes {
		want := uint64(idx) < gen
		if results[k].Found != want {
			return fmt.Errorf("generation %d: addr index %d found=%v, want %v",
				gen, idx, results[k].Found, want)
		}
	}
	return nil
}

// TestServeUnderSwap is the atomic-swap proof for the full HTTP path: eight
// readers hammer /v1/lookup and /v1/bulk while the writer publishes twenty
// generations. Run under -race (the CI serve job does) this checks both
// memory safety and response consistency — no torn or mixed-generation
// answers, ever.
func TestServeUnderSwap(t *testing.T) {
	st, err := hitlistdb.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(raceSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const generations = 20
	base := ipaddr.MustParse("2001:db8::")
	// Probe a spread of indices so both membership transitions (absent →
	// present as generations grow) are exercised.
	probes := []int{0, 1, generations / 2, generations - 1}
	var probeAddrs []string
	for _, i := range probes {
		probeAddrs = append(probeAddrs, base.AddLo(uint64(i)).String())
	}
	bulkBody, _ := json.Marshal(bulkRequest{Addrs: probeAddrs})

	done := make(chan struct{})
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		// Point-lookup readers: one address per request, so consistency is
		// checked via header-vs-body generation and the membership rule.
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			client := ts.Client()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/lookup?addr=" + probeAddrs[idx%len(probeAddrs)])
				if err != nil {
					report(err)
					return
				}
				var got lookupResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				hdr := resp.Header.Get(generationHeader)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				if err := checkConsistent(got.Generation, hdr,
					[]lookupResult{got.lookupResult}, probes[idx%len(probes):idx%len(probes)+1]); err != nil {
					report(err)
					return
				}
				idx++
			}
		}(r)
		// Bulk readers: several addresses per request — the strongest mixed-
		// generation detector, since all answers must come from one DB.
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/v1/bulk", "application/json", bytes.NewReader(bulkBody))
				if err != nil {
					report(err)
					return
				}
				var got bulkResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				hdr := resp.Header.Get(generationHeader)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				if len(got.Results) != len(probes) {
					report(fmt.Errorf("bulk returned %d results", len(got.Results)))
					return
				}
				if err := checkConsistent(got.Generation, hdr, got.Results, probes); err != nil {
					report(err)
					return
				}
			}
		}()
	}

	for g := 2; g <= generations; g++ {
		if _, err := st.Publish(raceSnapshot(g)); err != nil {
			t.Fatal(err)
		}
	}
	// Let readers observe the final generation before stopping.
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the dust settles every query answers from the final generation.
	resp, err := http.Get(ts.URL + "/v1/lookup?addr=" + probeAddrs[len(probeAddrs)-1])
	if err != nil {
		t.Fatal(err)
	}
	var got lookupResponse
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.Generation != generations || !got.Found {
		t.Fatalf("final state: %+v", got)
	}
}

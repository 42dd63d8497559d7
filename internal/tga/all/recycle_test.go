package all_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
)

// TestConcurrentRunsMatchSerial runs all ten generators over three seed
// lists through the driver, first one run at a time and then every run at
// once, twice over, so that runs take candidate sets and 6Prob frontiers
// that other runs, still going, have just given back. Every concurrent run
// must report the candidates, hits and aliased hits of its serial twin. A
// set or frontier handed out while still in use shows as a differing
// digest, or as a data race under -race.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type job struct {
		name  string
		seeds []ipaddr.Addr
	}
	var jobs []job
	for _, perKind := range []int{4, 8, 12} {
		for _, name := range all.ExtendedNames {
			jobs = append(jobs, job{name, syntheticSeeds(perKind)})
		}
	}
	digest := func(j job) (string, error) {
		rec := &recordingProber{Prober: oracleProber{}}
		res, err := tga.RunContext(context.Background(), all.MustNew(j.name), j.seeds, tga.RunConfig{
			Budget:       3000, // not a multiple of BatchSize
			BatchSize:    512,
			Prober:       rec,
			Dealiaser:    regionDealiaser{},
			ExcludeSeeds: true,
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("generated %d, candidates %#x, hits %#x, aliased %#x", res.Generated,
			ipaddr.Digest(rec.targets), ipaddr.Digest(res.Hits), ipaddr.Digest(res.AliasedHits)), nil
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = digest(j); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		got := make([]string, len(jobs))
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = digest(j)
			}()
		}
		wg.Wait()
		for i, j := range jobs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("round %d: %s over %d seeds: concurrent run %s, serial %s", round, j.name, len(j.seeds), got[i], want[i])
			}
		}
	}
}

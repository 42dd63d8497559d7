package all_test

import (
	"context"
	"slices"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
)

// oracleProber answers every probe from syntheticOutcome.
type oracleProber struct{}

func (oracleProber) Scan(targets []ipaddr.Addr, p proto.Protocol) []scanner.Result {
	out := make([]scanner.Result, len(targets))
	for i, a := range targets {
		out[i] = scanner.Result{Addr: a, Proto: p, Status: scanner.StatusSilent}
		if syntheticOutcome(a).Active {
			out[i].Status = scanner.StatusActive
		}
	}
	return out
}

func (o oracleProber) ScanActive(targets []ipaddr.Addr, p proto.Protocol) []ipaddr.Addr {
	return scanner.ActiveAddrs(o.Scan(targets, p))
}

// recordingProber scans through its Prober and records every target, in
// order. The driver scans exactly each batch's fresh candidates, in
// generation order, so one run's record is its candidate list.
type recordingProber struct {
	scanner.Prober
	targets []ipaddr.Addr
}

func (r *recordingProber) Scan(targets []ipaddr.Addr, p proto.Protocol) []scanner.Result {
	r.targets = append(r.targets, targets...)
	return r.Prober.Scan(targets, p)
}

// regionDealiaser flags what falls in aliasedRegion.
type regionDealiaser struct{}

func (regionDealiaser) Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) {
	for _, a := range addrs {
		if aliasedRegion.Contains(a) {
			aliased = append(aliased, a)
		} else {
			clean = append(clean, a)
		}
	}
	return clean, aliased
}

// privateGen forwards the Generator surface alone, hiding ShareCandidates
// the way any wrapper does, so the generator keeps its own set and the
// driver dedups. It fails the test if a batch repeats an address the
// generator proposed before.
type privateGen struct {
	tga.Generator
	t        *testing.T
	proposed *ipaddr.Set
}

func (g *privateGen) NextBatch(n int) []ipaddr.Addr {
	batch := g.Generator.NextBatch(n)
	for _, a := range batch {
		if !g.proposed.Add(a) {
			g.t.Errorf("%s proposed %v twice", g.Name(), a)
		}
	}
	return batch
}

// TestSharedCandidateSetMatchesPrivate runs every generator twice through
// the driver: once handed the run's candidate set, once behind a wrapper
// that keeps it private. The runs must agree on everything the driver
// reports, with and without seed exclusion, and with a budget the last
// batch overruns.
func TestSharedCandidateSetMatchesPrivate(t *testing.T) {
	seeds := syntheticSeeds(12)
	for _, name := range all.ExtendedNames {
		for _, exclude := range []bool{false, true} {
			run := func(g tga.Generator) (*tga.RunResult, []ipaddr.Addr) {
				rec := &recordingProber{Prober: oracleProber{}}
				res, err := tga.RunContext(context.Background(), g, seeds, tga.RunConfig{
					Budget:       5000, // not a multiple of BatchSize
					BatchSize:    512,
					Prober:       rec,
					Dealiaser:    regionDealiaser{},
					ExcludeSeeds: exclude,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, rec.targets
			}
			g := all.MustNew(name)
			if _, ok := g.(interface{ ShareCandidates(*ipaddr.Set) }); !ok {
				t.Fatalf("%s does not take the run's candidate set", name)
			}
			shared, sharedCands := run(g)
			private, privateCands := run(&privateGen{Generator: all.MustNew(name), t: t, proposed: ipaddr.NewSet()})

			if shared.Generated != private.Generated || shared.Exhausted != private.Exhausted {
				t.Errorf("%s exclude=%v: shared generated %d (exhausted %v), private %d (exhausted %v)",
					name, exclude, shared.Generated, shared.Exhausted, private.Generated, private.Exhausted)
			}
			for _, c := range []struct {
				what            string
				shared, private []ipaddr.Addr
			}{
				{"candidates", sharedCands, privateCands},
				{"hits", shared.Hits, private.Hits},
				{"aliased hits", shared.AliasedHits, private.AliasedHits},
			} {
				if !slices.Equal(c.shared, c.private) {
					t.Errorf("%s exclude=%v: %s differ: shared %d (digest %#x), private %d (digest %#x)",
						name, exclude, c.what, len(c.shared), ipaddr.Digest(c.shared), len(c.private), ipaddr.Digest(c.private))
				}
			}
			if len(sharedCands) != shared.Generated {
				t.Errorf("%s exclude=%v: %d candidates collected, %d generated", name, exclude, len(sharedCands), shared.Generated)
			}
		}
	}
}

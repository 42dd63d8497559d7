package all_test

import (
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
	"seedscan/internal/tga/all"
	"seedscan/internal/tga/sixprob"
)

// streamDigests pins every generator's exact candidate stream — the
// addresses and their order — on two synthetic seed sets. The constants
// were recorded from the code before the six tree/cluster generators were
// moved onto the two shared schedulers (tga.Expander, tga.LeafSearch); any
// change to a weight, chunk, rank, share, explore or reward rule, or to the
// order leaves are visited in, shows up here in about a second.
var streamDigests = map[string][2]uint64{
	// mixed, large
	"6Sense":    {0xc6bae4e6ab579eeb, 0xbc2447811f0f621c},
	"DET":       {0xe6f679410f343ef2, 0x4a981ec27cc70fb1},
	"6Tree":     {0x87b8a26fc143b75e, 0x468e21d6226dc11e},
	"6Scan":     {0xdc8d6b09d9535558, 0x15bfc421c2837b1f},
	"6Graph":    {0x4748bff42bddd283, 0xb61ced7d6f142343},
	"6Gen":      {0x17867bc8b6d27a9e, 0x13a727f97646093a},
	"6Hit":      {0x76d9e274ca1cae5, 0x8e12f3881ab02179},
	"EIP":       {0xa91cf3d8c19678bb, 0xd3a7b5afd91d1dc7},
	"AddrMiner": {0xe6f679410f343ef2, 0x4a981ec27cc70fb1},
	"6Prob":     {0xba94df98671fb05, 0xe86ab54c62718372},
}

// onlineDigests pins the online generators once more under a second
// oracle: no aliased region, and a hit pattern (mixOutcome) unrelated to
// the first, so that how hits re-rank leaves and arms is pinned twice. The
// constants were recorded, and committed on their own, before the leaf
// search kept its ranking across batches.
var onlineDigests = map[string][2]uint64{
	"6Sense":    {0x908a5f4f2ae94838, 0x670681de720d1b63},
	"DET":       {0x56e9bdced283be64, 0xae63be819c868223},
	"6Scan":     {0x93b3832e441cf8f8, 0x729230469f11f8f6},
	"6Hit":      {0xa54aa8c94058430f, 0xe532d95bdda70a55},
	"AddrMiner": {0x56e9bdced283be64, 0xae63be819c868223},
}

// prunedProbDigests pins 6Prob's stream, per beam width, under beams small
// enough to prune many times per run, so the kept set and the floor of
// every prune are pinned along with the draw order. The constants were recorded, and
// committed on their own, while the prune still fully sorted the frontier.
var prunedProbDigests = map[int][2]uint64{
	64:   {0xad9abf3d9b5af73d, 0xfd78f54aa9d4bda5},
	1024: {0xc25ce076464f5424, 0xb773bdd09498a54b},
	8192: {0xbceaaeca93af9400, 0x88b69d217080e0ea},
}

// splitmix is a self-contained deterministic stream, so the synthetic seeds
// do not depend on math/rand's generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// syntheticSeeds returns perKind seeds of each IID style (low-byte,
// structured, random) in each of several /64s under each of six /32s, in
// canonical order.
func syntheticSeeds(perKind int) []ipaddr.Addr {
	rng := splitmix(7)
	var out []ipaddr.Addr
	for p := uint64(0); p < 6; p++ {
		hi32 := (0x20010db0 + p*0x1111) << 32
		for sub := uint64(0); sub < 4; sub++ {
			hi := hi32 | (sub*0x0101)<<16 | sub
			for i := 0; i < perKind; i++ {
				// Low-byte: ::1, ::2, ...
				out = append(out, ipaddr.AddrFrom64s(hi, uint64(i+1)))
				// Structured: a few varying nybbles in fixed places.
				r := rng.next()
				out = append(out, ipaddr.AddrFrom64s(hi, 0x00aa_0000_0000_0000|(r&0xf)<<40|(r>>8&0xff)<<16|(r>>20&0x3)))
				// Random IID.
				out = append(out, ipaddr.AddrFrom64s(hi, rng.next()))
			}
		}
	}
	return tga.CanonicalSeeds(out)
}

// aliasedRegion answers for every address, the way an aliased /96 does: it
// is where the low-byte seeds of the first /64 live, so tree leaves expand
// straight into it.
var aliasedRegion = ipaddr.PrefixFrom(ipaddr.AddrFrom64s(0x20010db0<<32, 0), 96)

// mixOutcome answers for one address in five, by a hash of the address.
func mixOutcome(a ipaddr.Addr) tga.ProbeResult {
	return tga.ProbeResult{Addr: a, Active: ipaddr.Mix64(a.Hi(), a.Lo())%5 == 0}
}

func syntheticOutcome(a ipaddr.Addr) tga.ProbeResult {
	aliased := aliasedRegion.Contains(a)
	return tga.ProbeResult{
		Addr:    a,
		Active:  aliased || ipaddr.Digest([]ipaddr.Addr{a})&3 == 0,
		Aliased: aliased,
	}
}

// candidateStream drives g by hand for 40 batches of 1024. Online
// generators hear back from outcome about every candidate that is not a
// seed, as they would from a driver run with ExcludeSeeds.
func candidateStream(g tga.Generator, seeds []ipaddr.Addr, outcome func(ipaddr.Addr) tga.ProbeResult) []ipaddr.Addr {
	seedSet := ipaddr.NewSet(seeds...)
	var stream []ipaddr.Addr
	for round := 0; round < 40; round++ {
		batch := g.NextBatch(1024)
		if len(batch) == 0 {
			break
		}
		stream = append(stream, batch...)
		if !g.Online() {
			continue
		}
		var fb []tga.ProbeResult
		for _, a := range batch {
			if !seedSet.Contains(a) {
				fb = append(fb, outcome(a))
			}
		}
		g.Feedback(fb)
	}
	return stream
}

func TestCandidateStreamDigests(t *testing.T) {
	sets := [2][]ipaddr.Addr{syntheticSeeds(12), syntheticSeeds(64)} // mixed, large
	for _, pin := range []struct {
		oracle  string
		outcome func(ipaddr.Addr) tga.ProbeResult
		digests map[string][2]uint64
	}{
		{"aliased", syntheticOutcome, streamDigests},
		{"mix5", mixOutcome, onlineDigests},
	} {
		for _, name := range all.ExtendedNames {
			want, ok := pin.digests[name]
			if !ok {
				continue
			}
			for si, seeds := range sets {
				for _, path := range []string{"Init", "BuildModel+InitFromModel"} {
					g := all.MustNew(name)
					mb, ok := g.(tga.ModelBuilder)
					var err error
					switch {
					case path == "Init":
						err = g.Init(seeds)
					case !ok:
						continue // AddrMiner: its model depends on the memory store
					default:
						var m tga.Model
						if m, err = mb.BuildModel(seeds); err == nil {
							err = mb.InitFromModel(m, seeds)
						}
					}
					if err != nil {
						t.Fatalf("%s, set %d, %s: %v", name, si, path, err)
					}
					stream := candidateStream(g, seeds, pin.outcome)
					if got := ipaddr.Digest(stream); got != want[si] {
						t.Errorf("%s oracle, %s, set %d, %s: %d candidates, digest %#x, want %#x", pin.oracle, name, si, path, len(stream), got, want[si])
					}
				}
			}
		}
	}
}

func TestPrunedSixProbStreamDigests(t *testing.T) {
	sets := [2][]ipaddr.Addr{syntheticSeeds(12), syntheticSeeds(64)}
	for beam, want := range prunedProbDigests {
		for si, seeds := range sets {
			g := sixprob.New()
			g.Beam = beam
			if err := g.Init(seeds); err != nil {
				t.Fatal(err)
			}
			stream := candidateStream(g, seeds, syntheticOutcome)
			if got := ipaddr.Digest(stream); got != want[si] {
				t.Errorf("6Prob beam %d, set %d: %d candidates, digest %#x, want %#x", beam, si, len(stream), got, want[si])
			}
		}
	}
}

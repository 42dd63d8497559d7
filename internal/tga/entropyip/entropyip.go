// Package entropyip implements Entropy/IP (Foremski et al., IMC 2016):
// the seed addresses are segmented by per-nybble entropy into contiguous
// segments (low-entropy runs are treated as near-constant, high-entropy
// runs as variable), frequent values are mined per segment, and candidates
// are generated by sampling segment values independently according to
// their empirical frequencies — an approximation of the original's Bayesian
// network over segment values.
//
// Sampling segments independently ignores cross-segment correlation, which
// is exactly why EIP finds orders of magnitude fewer hits than tree-based
// TGAs in the paper's evaluation: most sampled combinations of
// individually-frequent segment values never co-occur in real allocations.
package entropyip

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// segment is a contiguous nybble range with its observed values.
type segment struct {
	start, end int // [start, end) nybble positions
	values     []segValue
	cum        []float64 // cumulative probability
}

// segValue is one observed value-string for a segment.
type segValue struct {
	nybbles []byte
	count   int
}

// maxSegmentNybbles caps a segment's width, so that its value packs into
// a uint32 key, 4 bits a nybble (the constant below fails to compile
// otherwise).
const maxSegmentNybbles = 8

const _ uint32 = 1<<(4*maxSegmentNybbles) - 1

// valueCount is one segment value, packed, and how many seeds hold it.
type valueCount struct {
	key   uint32
	count int
}

// packSegment packs a's nybbles in [start, end) into a key, the first
// nybble highest.
func packSegment(a ipaddr.Addr, start, end int) uint32 {
	var k uint32
	for p := start; p < end; p++ {
		k = k<<4 | uint32(a.Nybble(p))
	}
	return k
}

const (
	// entropyThreshold splits segments: positions at or above it are
	// "variable" (bits).
	entropyThreshold = 0.5
	// maxSegmentValues caps the mined values per segment.
	maxSegmentValues = 64
	// samplingSeed drives sampling.
	samplingSeed = 1
)

// Generator is the Entropy/IP TGA. Construct with New.
type Generator struct {
	rng      *rand.Rand
	segments []segment
	emitted  *ipaddr.Set
	dry      int
}

// New returns an Entropy/IP generator with default parameters.
func New() *Generator {
	return &Generator{}
}

// Name implements tga.Generator.
func (g *Generator) Name() string { return "EIP" }

// Online implements tga.Generator. Entropy/IP is offline.
func (g *Generator) Online() bool { return false }

// model is Entropy/IP's cacheable mined model: the entropy segmentation
// with per-segment value tables and cumulative probabilities. Sampling
// only reads it, so runs share one Model freely.
type model struct {
	segments []segment
}

// ModelParams implements tga.ModelBuilder. The sampling seed only drives
// sampling and is excluded.
func (g *Generator) ModelParams() string {
	return fmt.Sprintf("eip/threshold=%g,maxvalues=%d", entropyThreshold, maxSegmentValues)
}

// BuildModel implements tga.ModelBuilder: it computes the per-position
// entropy, cuts the segmentation, and mines each segment's value table.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("entropyip: empty seed set")
	}
	h := tga.PositionEntropy(seeds)
	// Build segments: contiguous runs of same classification. Variable
	// runs are capped to 2 nybbles: shorter variable segments are what
	// give Entropy/IP its (correlation-blind) novelty — a single wide
	// segment would only ever replay observed value strings.
	var segments []segment
	start := 0
	classify := func(i int) bool { return h[i] >= entropyThreshold }
	for i := 1; i <= ipaddr.NybbleCount; i++ {
		split := i == ipaddr.NybbleCount ||
			classify(i) != classify(start) ||
			(classify(start) && i-start >= 2) ||
			(!classify(start) && i-start >= maxSegmentNybbles)
		if split {
			segments = append(segments, segment{start: start, end: i})
			start = i
		}
	}
	// Mine values per segment, counted under packed keys in one map that
	// every segment reuses; only the values kept become byte strings.
	counts := make(map[uint32]int)
	var tally []valueCount
	for si := range segments {
		s := &segments[si]
		clear(counts)
		for _, a := range seeds {
			counts[packSegment(a, s.start, s.end)]++
		}
		tally = tally[:0]
		for k, c := range counts {
			tally = append(tally, valueCount{k, c})
		}
		// Most frequent first; ties in ascending value order, which for
		// keys of one width is the byte strings' lexicographic order.
		slices.SortFunc(tally, func(a, b valueCount) int {
			if a.count != b.count {
				return cmp.Compare(b.count, a.count)
			}
			return cmp.Compare(a.key, b.key)
		})
		kept := tally[:min(len(tally), maxSegmentValues)]
		width := s.end - s.start
		nybbles := make([]byte, len(kept)*width)
		s.values = make([]segValue, len(kept))
		total := 0
		for i, v := range kept {
			b := nybbles[i*width : (i+1)*width : (i+1)*width]
			for j := range b {
				b[j] = byte(v.key >> (4 * (width - 1 - j)) & 0xf)
			}
			s.values[i] = segValue{nybbles: b, count: v.count}
			total += v.count
		}
		s.cum = make([]float64, len(s.values))
		run := 0.0
		for i, v := range s.values {
			run += float64(v.count) / float64(total)
			s.cum[i] = run
		}
	}
	return &model{segments: segments}, nil
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	mm, ok := m.(*model)
	if !ok {
		return fmt.Errorf("entropyip: model type %T", m)
	}
	g.rng = rand.New(rand.NewSource(samplingSeed))
	g.emitted = ipaddr.NewSet()
	g.dry = 0
	g.segments = mm.segments // read-only after mining
	return nil
}

// Init segments the address space by entropy and mines segment values.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// sampleSegment draws a value string for segment s.
func (g *Generator) sampleSegment(s *segment) []byte {
	u := g.rng.Float64()
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.values) {
		i = len(s.values) - 1
	}
	return s.values[i].nybbles
}

// Lend implements the driver's run scratch (see tga.RunContext): its
// candidate set replaces the generator's own record of what it proposed.
func (g *Generator) Lend(sc *tga.Scratch) { g.emitted = sc.Candidates() }

// NextBatch samples candidates from the segment model. It may return fewer
// than n when the model keeps producing repeats (small models saturate).
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	if len(g.segments) == 0 || g.dry > 4 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, n)
	misses := 0
	for len(out) < n && misses < n*8+64 {
		var a ipaddr.Addr
		for si := range g.segments {
			s := &g.segments[si]
			vals := g.sampleSegment(s)
			for j, v := range vals {
				a = a.WithNybble(s.start+j, v)
			}
		}
		if g.emitted.Add(a) {
			out = append(out, a)
		} else {
			misses++
		}
	}
	if len(out) == 0 {
		g.dry++
	} else {
		g.dry = 0
	}
	return out
}

// Feedback implements tga.Generator; Entropy/IP ignores scan results.
func (g *Generator) Feedback([]tga.ProbeResult) {}

// Package sixsense implements 6Sense (Williams et al., USENIX Security
// 2024): an online reinforcement-learning TGA. Seeds are grouped into
// per-/32 "arms"; each arm holds a position-conditioned first-order Markov
// model over the remaining 24 nybbles (the lightweight stand-in for
// 6Sense's per-segment deep generator). Every batch, the probe budget is
// split between exploiting high-reward arms and a dedicated
// network-diversity share spent on the least-probed arms — 6Sense's
// AS-coverage budget. Probe outcomes both update arm rewards and sharpen
// the winning arm's Markov model.
//
// Uniquely among the studied TGAs, 6Sense dealiases online during
// generation: hits flagged as aliased are treated as misses, their /96 is
// blacklisted, and future candidates inside blacklisted prefixes are
// discarded before probing. This is why its output stays nearly
// alias-free even on fully aliased seed datasets (Table 4).
package sixsense

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

const (
	prefixNybbles = 8  // arm granularity: /32
	modelStart    = 8  // first modelled position
	aliasBits     = 96 // blacklist granularity
)

// arm is one mined /32 prefix group: its fixed prefix, its Markov model
// over the seeds, and how many seeds trained it.
type arm struct {
	fixed [prefixNybbles]byte
	markov
	seeds int
}

// markov is a position-conditioned first-order Markov model of the
// nybbles from modelStart on. Most (position, previous nybble) contexts
// are never seen, so only the seen ones hold a transition row. Tallies
// are int32; totals are summed in int.
type markov struct {
	// row[pos-modelStart][prev] is 1 + the index into rows of that
	// context's transition tallies, or 0 if it has none yet.
	row  [ipaddr.NybbleCount - modelStart][16]uint16
	rows [][16]int32
	// marginal[pos-modelStart][v] backs off when a context is unseen.
	marginal [ipaddr.NybbleCount - modelStart][16]int32
}

func (m *markov) observe(addr ipaddr.Addr, weight int32) {
	prev := addr.Nybble(modelStart - 1)
	for pos := modelStart; pos < ipaddr.NybbleCount; pos++ {
		v := addr.Nybble(pos)
		r := &m.row[pos-modelStart][prev]
		if *r == 0 {
			m.rows = append(m.rows, [16]int32{})
			*r = uint16(len(m.rows))
		}
		m.rows[*r-1][v] += weight
		m.marginal[pos-modelStart][v] += weight
		prev = v
	}
}

// transitions returns the tallies of the context (pos, prev), nil if the
// context is unseen.
func (m *markov) transitions(pos int, prev byte) *[16]int32 {
	if r := m.row[pos-modelStart][prev]; r != 0 {
		return &m.rows[r-1]
	}
	return nil
}

// armRun is a run's view of one arm. The Markov model is the mined arm's
// until the run first sharpens it, and the run's own copy from then on, so
// a run that never hits in an arm copies nothing of it.
type armRun struct {
	*arm
	m      *markov
	probes int
	hits   int
}

// observe sharpens the run's model of the arm, copying the mined one first:
// the row index and marginals by value, the rows into a fresh slice.
func (a *armRun) observe(addr ipaddr.Addr, weight int32) {
	if a.m == &a.arm.markov {
		own := *a.m
		own.rows = slices.Clone(own.rows)
		a.m = &own
	}
	a.m.observe(addr, weight)
}

// sample draws one address from the run's model of the arm.
func (a *armRun) sample(rng *rand.Rand) ipaddr.Addr {
	var out ipaddr.Addr
	for i, v := range a.fixed {
		out = out.WithNybble(i, v)
	}
	prev := a.fixed[prefixNybbles-1]
	for pos := modelStart; pos < ipaddr.NybbleCount; pos++ {
		row := a.m.transitions(pos, prev)
		total := sum(row)
		if total == 0 {
			// Back off to the positional marginal.
			row = &a.m.marginal[pos-modelStart]
			total = sum(row)
		}
		var v byte
		if total > 0 {
			v = weightedPick(row, total, rng)
		}
		out = out.WithNybble(pos, v)
		prev = v
	}
	return out
}

// sum totals a row of tallies; a nil row sums to 0.
func sum(counts *[16]int32) int {
	if counts == nil {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	return total
}

func weightedPick(counts *[16]int32, total int, rng *rand.Rand) byte {
	u := rng.Intn(total)
	for v, c := range counts {
		if u < int(c) {
			return byte(v)
		}
		u -= int(c)
	}
	return 0
}

func (a *armRun) reward() float64 {
	return (float64(a.hits) + 1) / (float64(a.probes) + 2)
}

const (
	// asShare is the budget fraction dedicated to network diversity —
	// probing the least-explored arms.
	asShare = 0.25
	// samplingSeed drives sampling.
	samplingSeed = 1
)

// Generator is the 6Sense TGA. Construct with New.
type Generator struct {
	rng     *rand.Rand
	arms    []*armRun
	pending map[ipaddr.Addr]*armRun
	emitted *ipaddr.Set
	// aliasBlacklist holds the base addresses of the /96s flagged by the
	// integrated dealiaser.
	aliasBlacklist *ipaddr.Set
	dry            int
}

// New returns a 6Sense generator with default parameters.
func New() *Generator { return &Generator{} }

// Name implements tga.Generator.
func (g *Generator) Name() string { return "6Sense" }

// Online implements tga.Generator.
func (g *Generator) Online() bool { return true }

// model is 6Sense's cacheable mined model: the seed-trained /32 arms.
// Runs sharpen their arms online (observe with weight 2 on hits), each on
// its own copy of an arm's Markov model, made at the arm's first hit — the
// cached Model itself is never written after mining.
type model struct {
	arms []arm
}

// ModelParams implements tga.ModelBuilder. The arm granularity and Markov
// structure are fixed; asShare and samplingSeed only steer the online search and
// sampling, so the model is named by the generator alone.
func (g *Generator) ModelParams() string { return "6sense" }

// BuildModel implements tga.ModelBuilder: it groups seeds into /32 arms
// and trains each arm's Markov model over its own seeds. Arms are kept in
// first-seen order.
func (g *Generator) BuildModel(seeds []ipaddr.Addr) (tga.Model, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sixsense: empty seed set")
	}
	// Number the arms first and mark the (position, previous nybble)
	// contexts each one's seeds reach, so the arms and every arm's rows
	// are allocated once, at their final length.
	keyIdx := make(map[uint64]int)
	var contexts [][ipaddr.NybbleCount - modelStart]uint16
	for _, s := range seeds {
		k := s.Hi() >> 32
		i, ok := keyIdx[k]
		if !ok {
			i = len(contexts)
			keyIdx[k] = i
			contexts = append(contexts, [ipaddr.NybbleCount - modelStart]uint16{})
		}
		seen := &contexts[i]
		prev := s.Nybble(modelStart - 1)
		for pos := modelStart; pos < ipaddr.NybbleCount; pos++ {
			seen[pos-modelStart] |= 1 << prev
			prev = s.Nybble(pos)
		}
	}
	arms := make([]arm, len(contexts))
	for i, seen := range contexts {
		n := 0
		for _, m := range seen {
			n += bits.OnesCount16(m)
		}
		arms[i].rows = make([][16]int32, 0, n)
	}
	for _, s := range seeds {
		k := s.Hi() >> 32
		a := &arms[keyIdx[k]]
		if a.seeds == 0 {
			for p := 0; p < prefixNybbles; p++ {
				a.fixed[p] = s.Nybble(p)
			}
		}
		a.observe(s, 1)
		a.seeds++
	}
	return &model{arms: arms}, nil
}

// InitFromModel implements tga.ModelBuilder.
func (g *Generator) InitFromModel(m tga.Model, seeds []ipaddr.Addr) error {
	mm, ok := m.(*model)
	if !ok {
		return fmt.Errorf("sixsense: model type %T", m)
	}
	g.rng = rand.New(rand.NewSource(samplingSeed))
	runs := make([]armRun, len(mm.arms))
	g.arms = make([]*armRun, len(mm.arms))
	g.pending = make(map[ipaddr.Addr]*armRun)
	g.emitted = ipaddr.NewSet()
	g.aliasBlacklist = ipaddr.NewSet()
	g.dry = 0
	for i := range mm.arms {
		a := &mm.arms[i]
		runs[i] = armRun{arm: a, m: &a.markov}
		g.arms[i] = &runs[i]
	}
	return nil
}

// Init groups seeds into arms and trains the per-arm models.
func (g *Generator) Init(seeds []ipaddr.Addr) error { return tga.InitByModel(g, seeds) }

// skip reports whether candidate c was already emitted or falls in a
// blacklisted /96.
func (g *Generator) skip(c ipaddr.Addr) bool {
	return g.emitted.Contains(c) || g.aliasBlacklist.Contains(ipaddr.PrefixFrom(c, aliasBits).Addr())
}

// ShareCandidates implements the driver's shared candidate set (see
// tga.RunContext): set replaces the generator's own record of what it
// proposed.
func (g *Generator) ShareCandidates(set *ipaddr.Set) { g.emitted = set }

// NextBatch splits the batch between reward-ranked arms and the
// diversity share, sampling candidates from each arm's Markov model and
// discarding blacklisted-alias candidates before they cost probes.
func (g *Generator) NextBatch(n int) []ipaddr.Addr {
	if len(g.arms) == 0 || g.dry > 4 {
		return nil
	}
	out := make([]ipaddr.Addr, 0, n)
	sampleFrom := func(a *armRun, k int) int {
		got := 0
		for misses := 0; got < k && misses < 8*k+16; {
			c := a.sample(g.rng)
			if g.skip(c) {
				// The model path is saturated: explore its immediate
				// neighbourhood instead of resampling from scratch. The real
				// 6Sense's neural generator has full support over the nybble
				// alphabet; single-position perturbation restores that without
				// abandoning the learned pattern.
				c = c.WithNybble(modelStart+g.rng.Intn(ipaddr.NybbleCount-modelStart), byte(g.rng.Intn(16)))
				if g.skip(c) {
					misses++
					continue
				}
			}
			g.emitted.Add(c)
			out = append(out, c)
			g.pending[c] = a
			a.probes++
			got++
		}
		return got
	}

	exploit := n - int(float64(n)*asShare)
	byReward := append([]*armRun(nil), g.arms...)
	sort.SliceStable(byReward, func(i, j int) bool { return byReward[i].reward() > byReward[j].reward() })
	tga.GeometricShares(byReward, exploit, sampleFrom)

	// Diversity share: least-probed arms first, one candidate each.
	byProbes := append([]*armRun(nil), g.arms...)
	sort.SliceStable(byProbes, func(i, j int) bool { return byProbes[i].probes < byProbes[j].probes })
	for _, a := range byProbes {
		if len(out) >= n {
			break
		}
		sampleFrom(a, 1)
	}
	if len(out) == 0 {
		g.dry++
	} else {
		g.dry = 0
	}
	return out
}

// Feedback applies the integrated dealiasing and reinforcement update:
// aliased hits blacklist their /96 and count as misses; genuine hits
// reinforce both the arm's reward and its Markov model.
func (g *Generator) Feedback(results []tga.ProbeResult) {
	for _, r := range results {
		a, ok := g.pending[r.Addr]
		if !ok {
			continue
		}
		delete(g.pending, r.Addr)
		if r.Aliased {
			g.aliasBlacklist.Add(ipaddr.PrefixFrom(r.Addr, aliasBits).Addr())
			continue
		}
		if r.Active {
			a.hits++
			// Online model sharpening: hits are high-quality training data.
			a.observe(r.Addr, 2)
		}
	}
}

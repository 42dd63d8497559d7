package longitudinal

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"seedscan/internal/ipaddr"
)

// refTracker is the map-keyed tracker the positional one replaced, kept
// as the reference its passes are checked against: state per address in a
// map, any probe order, the responsive set as a set.
type refTracker struct {
	alpha      float64
	staleAfter int
	states     map[ipaddr.Addr]*addrState
}

func newRefTracker(alpha float64, staleAfter int) *refTracker {
	return &refTracker{alpha: alpha, staleAfter: staleAfter, states: make(map[ipaddr.Addr]*addrState)}
}

func (t *refTracker) Observe(epoch int, probed []ipaddr.Addr, responsive *ipaddr.Set) observeStats {
	var stats observeStats
	for _, a := range probed {
		up := responsive != nil && responsive.Contains(a)
		st, ok := t.states[a]
		if !ok {
			st = &addrState{}
			t.states[a] = st
		}
		changed := st.Observed > 0 && st.Up != up
		st.LastProbed = epoch
		st.Observed++
		stats.Probed++
		if changed {
			st.Flaps++
			stats.Flaps++
			st.Volatility = t.alpha + (1-t.alpha)*st.Volatility
		} else {
			st.Volatility = (1 - t.alpha) * st.Volatility
		}
		st.Up = up
		if up {
			stats.Up++
			st.UpCount++
			st.ConsecUp++
			st.ConsecDown = 0
			if st.UpCount == 1 {
				st.FirstSeen = epoch
			}
			st.LastSeen = epoch
			if st.Stale {
				st.Stale = false
				stats.Resurrected++
			}
		} else {
			st.ConsecDown++
			st.ConsecUp = 0
			if !st.Stale && st.ConsecDown >= t.staleAfter {
				st.Stale = true
				stats.NewlyStale++
			}
		}
	}
	return stats
}

func (t *refTracker) Alive() []ipaddr.Addr {
	var out []ipaddr.Addr
	for a, st := range t.states {
		if st.Up && !st.Stale {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (t *refTracker) ConfirmedStale() []ipaddr.Addr {
	var out []ipaddr.Addr
	for a, st := range t.states {
		if st.Stale {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (t *refTracker) StaleCount() int { return len(t.ConfirmedStale()) }

// refSelect is the map-based Select the one-pass version replaced: a
// per-/64 volatility map, class lists, a stable sort of the volatile
// class, and a final sort of the targets.
func refSelect(cfg schedulerConfig, epoch int, universe []ipaddr.Addr, tr *refTracker) selection {
	cfg.fillDefaults()
	type agg struct {
		sum float64
		n   int
	}
	vol64 := make(map[uint64]*agg)
	for _, a := range universe {
		if st := tr.states[a]; st != nil {
			g, ok := vol64[a.Hi()]
			if !ok {
				g = &agg{}
				vol64[a.Hi()] = g
			}
			g.sum += st.Volatility
			g.n++
		}
	}
	mean64 := func(a ipaddr.Addr) float64 {
		if g, ok := vol64[a.Hi()]; ok && g.n > 0 {
			return g.sum / float64(g.n)
		}
		return 0
	}

	type volAddr struct {
		a ipaddr.Addr
		v float64
	}
	var (
		sel      selection
		news     []ipaddr.Addr
		pending  []ipaddr.Addr
		volatile []volAddr
		stable   []ipaddr.Addr
	)
	for _, a := range universe {
		st := tr.states[a]
		switch {
		case st == nil:
			news = append(news, a)
		case st.Stale:
			continue
		case st.ConsecDown >= 1:
			pending = append(pending, a)
		default:
			v := st.Volatility
			if m := mean64(a) / 2; m > v {
				v = m
			}
			if v >= cfg.VolatilityFloor {
				volatile = append(volatile, volAddr{a, v})
			} else {
				stable = append(stable, a)
			}
		}
		sel.Eligible++
	}
	sort.SliceStable(volatile, func(i, j int) bool {
		if volatile[i].v != volatile[j].v {
			return volatile[i].v > volatile[j].v
		}
		return volatile[i].a.Less(volatile[j].a)
	})

	budget := cfg.Budget
	if budget <= 0 {
		budget = sel.Eligible
	}
	take := func(n int) int {
		if room := budget - len(sel.Targets); n > room {
			n = room
		}
		return n
	}

	n := take(len(news))
	sel.Targets = append(sel.Targets, news[:n]...)
	sel.New = n

	n = take(len(pending))
	sel.Targets = append(sel.Targets, pending[:n]...)
	sel.PendingStale = n

	n = take(len(volatile))
	for _, va := range volatile[:n] {
		sel.Targets = append(sel.Targets, va.a)
	}
	sel.Volatile = n

	phase := uint64(epoch) % uint64(cfg.StableEvery)
	for _, a := range stable {
		if len(sel.Targets) >= budget {
			break
		}
		if rotHash(cfg.Seed, a)%uint64(cfg.StableEvery) == phase {
			sel.Targets = append(sel.Targets, a)
			sel.StableRefresh++
		}
	}

	sel.Saved = sel.Eligible - len(sel.Targets)
	sort.Slice(sel.Targets, func(i, j int) bool { return sel.Targets[i].Less(sel.Targets[j]) })
	return sel
}

// runsUniverse builds a sorted, unique universe of /64 runs of the given
// sizes, each run's members scattered over its interface identifiers.
func runsUniverse(rng *rand.Rand, sizes ...int) []ipaddr.Addr {
	var u []ipaddr.Addr
	for r, size := range sizes {
		base := ipaddr.AddrFrom64s(0x20010db8_00000000+uint64(r)*3, 0)
		set := ipaddr.NewSet()
		for set.Len() < size {
			set.Add(base.AddLo(uint64(rng.Intn(4 * size))))
		}
		u = append(u, set.Sorted()...)
	}
	return u
}

// TestSelectMatchesReference folds random observation sequences through
// the positional tracker and one-pass scheduler and through the map-based
// reference, over a universe of several /64 runs, and requires every
// Selection field, every address state and every derived view to agree.
func TestSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	universe := runsUniverse(rng, 1, 7, 23, 2, 40, 11, 30)
	n := len(universe)
	var corpus []ipaddr.Addr
	for _, a := range universe {
		if rng.Intn(3) > 0 {
			corpus = append(corpus, a)
		}
	}
	for _, budget := range []int{0, 1, 2, n / 3, n} {
		for _, every := range []int{1, 3, 4} {
			for _, floor := range []float64{0.05, 0.3} {
				cfg := schedulerConfig{Budget: budget, StableEvery: every, VolatilityFloor: floor, Seed: uint64(budget)}
				checkAgainstReference(t, rng, universe, corpus, cfg)
			}
		}
	}
}

func checkAgainstReference(t *testing.T, rng *rand.Rand, universe, corpus []ipaddr.Addr, cfg schedulerConfig) {
	t.Helper()
	const epochs = 14
	staleAfter := 2 + rng.Intn(2)
	tr := newTracker(universe, 0.5, staleAfter)
	ref := newRefTracker(0.5, staleAfter)
	s := newScheduler(cfg)
	d := &Daemon{universe: universe, tracker: tr, inCorpus: corpusFlags(universe, corpus)}
	// Each address answers with its own probability, so the universe
	// holds steady hosts, flappy ones and dead ones.
	upOdds := make(map[ipaddr.Addr]float64, len(universe))
	for _, a := range universe {
		upOdds[a] = []float64{0, 0.2, 0.5, 0.9, 1}[rng.Intn(5)]
	}
	for e := 1; e <= epochs; e++ {
		sel := s.Select(e, tr)
		want := refSelect(cfg, e, universe, ref)
		if !slices.Equal(sel.Targets, want.Targets) {
			t.Fatalf("%+v epoch %d: targets\n got %v\nwant %v", cfg, e, sel.Targets, want.Targets)
		}
		targets := sel.Targets
		sel.Targets, want.Targets = nil, nil
		if !reflect.DeepEqual(sel, want) {
			t.Fatalf("%+v epoch %d: selection %+v, want %+v", cfg, e, sel, want)
		}

		// Mostly the plan, as the daemon probes; sometimes an arbitrary
		// slice of the universe, to reach states no plan would.
		if rng.Intn(4) == 0 {
			targets = targets[:0:0]
			for _, a := range universe {
				if rng.Intn(2) == 0 {
					targets = append(targets, a)
				}
			}
		}
		var hits []ipaddr.Addr
		for _, a := range targets {
			if rng.Float64() < upOdds[a] {
				hits = append(hits, a)
			}
		}
		rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		got, wantObs := tr.observe(e, targets, hits), ref.Observe(e, targets, ipaddr.NewSet(hits...))
		if got != wantObs {
			t.Fatalf("%+v epoch %d: observe %+v, want %+v", cfg, e, got, wantObs)
		}

		for _, a := range universe {
			if st, rst := tr.state(a), ref.states[a]; (st == nil) != (rst == nil) || st != nil && *st != *rst {
				t.Fatalf("%+v epoch %d: state of %v = %+v, want %+v", cfg, e, a, st, rst)
			}
		}
		if tr.len() != len(ref.states) {
			t.Fatalf("%+v epoch %d: Len %d, want %d", cfg, e, tr.len(), len(ref.states))
		}
		alive := tr.aliveSet()
		if !slices.Equal(alive.Slice(), ref.Alive()) || !slices.Equal(alive.Sorted(), ref.Alive()) {
			t.Fatalf("%+v epoch %d: Alive %v, want %v in order", cfg, e, alive.Slice(), ref.Alive())
		}
		if got, want := tr.ConfirmedStale(), ref.ConfirmedStale(); !slices.Equal(got, want) {
			t.Fatalf("%+v epoch %d: ConfirmedStale %v, want %v", cfg, e, got, want)
		}
		if tr.staleCount() != ref.StaleCount() {
			t.Fatalf("%+v epoch %d: StaleCount %d, want %d", cfg, e, tr.staleCount(), ref.StaleCount())
		}
		var live []ipaddr.Addr
		for _, a := range corpus {
			if st := ref.states[a]; st == nil || !st.Stale {
				live = append(live, a)
			}
		}
		if got := d.LiveSeeds(); !reflect.DeepEqual(got, live) {
			t.Fatalf("%+v epoch %d: LiveSeeds %v, want %v", cfg, e, got, live)
		}
	}
}

package longitudinal

import (
	"math"
	"slices"
	"testing"

	"seedscan/internal/ipaddr"
)

func addr(lo uint64) ipaddr.Addr {
	return ipaddr.MustParse("2001:db8::").AddLo(lo)
}

// observe runs one epoch over a fixed probe list with the given subset up.
func observe(t *Tracker, epoch int, probed []ipaddr.Addr, up ...ipaddr.Addr) observeStats {
	probed = slices.Clone(probed)
	slices.SortFunc(probed, ipaddr.Addr.Compare)
	return t.observe(epoch, probed, up)
}

func TestTrackerLifetimeAndFlaps(t *testing.T) {
	a := addr(1)
	probed := []ipaddr.Addr{a}
	tr := newTracker(probed, 0.5, 3)

	observe(tr, 1, probed, a) // up
	observe(tr, 2, probed, a) // up
	observe(tr, 3, probed)    // down  (flap 1)
	observe(tr, 4, probed, a) // up    (flap 2)
	st := tr.state(a)
	if st == nil {
		t.Fatal("no state")
	}
	if st.FirstSeen != 1 || st.LastSeen != 4 || st.Lifetime() != 4 {
		t.Fatalf("lifetime fields: %+v", st)
	}
	if st.Observed != 4 || st.UpCount != 3 || st.Flaps != 2 {
		t.Fatalf("counters: %+v", st)
	}
	if !st.Up || st.ConsecUp != 1 || st.ConsecDown != 0 {
		t.Fatalf("streaks: %+v", st)
	}
	// EWMA with alpha=0.5 over changed-indicators 0,0,1,1: 0, 0, .5, .75.
	if math.Abs(st.Volatility-0.75) > 1e-9 {
		t.Fatalf("volatility = %v, want 0.75", st.Volatility)
	}
	// Holding steady decays it geometrically.
	observe(tr, 5, probed, a)
	if math.Abs(st.Volatility-0.375) > 1e-9 {
		t.Fatalf("decayed volatility = %v, want 0.375", st.Volatility)
	}
}

func TestTrackerStaleConfirmationAndResurrection(t *testing.T) {
	a := addr(7)
	probed := []ipaddr.Addr{a}
	tr := newTracker(probed, 0.5, 3)

	observe(tr, 1, probed, a)
	for e := 2; e <= 4; e++ {
		stats := observe(tr, e, probed)
		wantStale := e == 4 // third consecutive down
		if got := stats.NewlyStale == 1; got != wantStale {
			t.Fatalf("epoch %d: newly stale = %v", e, stats.NewlyStale)
		}
	}
	st := tr.state(a)
	if !st.Stale || st.ConsecDown != 3 {
		t.Fatalf("not confirmed stale: %+v", st)
	}
	if got := tr.ConfirmedStale(); len(got) != 1 || got[0] != a {
		t.Fatalf("ConfirmedStale = %v", got)
	}
	if tr.aliveSet().Contains(a) {
		t.Fatal("stale address reported alive")
	}

	// A response resurrects it.
	stats := observe(tr, 5, probed, a)
	if stats.Resurrected != 1 || st.Stale || tr.staleCount() != 0 {
		t.Fatalf("resurrection failed: stats=%+v state=%+v", stats, st)
	}
}

func TestSchedulerPriorityAndBudget(t *testing.T) {
	fresh := addr(100)  // never probed
	down := addr(101)   // pending stale confirmation
	flappy := addr(102) // volatile
	stale := addr(103)  // confirmed stale
	stables := []ipaddr.Addr{}
	for i := uint64(0); i < 8; i++ {
		stables = append(stables, ipaddr.MustParse("2001:db8:1::").AddLo(i))
	}

	universe := ipaddr.DedupSorted(append([]ipaddr.Addr{fresh, down, flappy, stale}, stables...))
	tr := newTracker(universe, 0.5, 3)
	warm := append([]ipaddr.Addr{down, flappy, stale}, stables...)
	observe(tr, 1, warm, append([]ipaddr.Addr{down, flappy}, stables...)...)
	observe(tr, 2, warm, append([]ipaddr.Addr{down}, stables...)...) // flappy down, stale down 1
	observe(tr, 3, warm, append([]ipaddr.Addr{flappy}, stables...)...)
	observe(tr, 4, warm, append([]ipaddr.Addr{flappy}, stables...)...) // stale: down 3 → confirmed

	if tr.state(stale).Stale != true {
		t.Fatal("setup: stale not confirmed")
	}

	s := newScheduler(schedulerConfig{StableEvery: 4, VolatilityFloor: 0.05})
	sel := s.Select(5, tr)

	if sel.Eligible != len(universe)-1 {
		t.Fatalf("eligible = %d, want %d (stale excluded)", sel.Eligible, len(universe)-1)
	}
	inTargets := func(a ipaddr.Addr) bool {
		for _, x := range sel.Targets {
			if x == a {
				return true
			}
		}
		return false
	}
	if !inTargets(fresh) || sel.New != 1 {
		t.Fatalf("fresh candidate not scheduled: %+v", sel)
	}
	if !inTargets(down) || sel.PendingStale != 1 {
		t.Fatalf("pending-stale not scheduled: %+v", sel)
	}
	if !inTargets(flappy) || sel.Volatile < 1 {
		t.Fatalf("volatile not scheduled: %+v", sel)
	}
	if inTargets(stale) {
		t.Fatal("confirmed-stale scheduled")
	}
	if sel.StableRefresh >= len(stables) {
		t.Fatalf("stable rotation probed everything (%d of %d)", sel.StableRefresh, len(stables))
	}
	if sel.Saved != sel.Eligible-len(sel.Targets) || sel.Saved <= 0 {
		t.Fatalf("saved = %d (eligible %d, probed %d)", sel.Saved, sel.Eligible, len(sel.Targets))
	}

	// A hard budget truncates in priority order: the fresh candidate and
	// the pending-stale confirmation survive a budget of 2.
	tight := newScheduler(schedulerConfig{Budget: 2, StableEvery: 4})
	tsel := tight.Select(5, tr)
	if len(tsel.Targets) != 2 || tsel.New != 1 || tsel.PendingStale != 1 || tsel.Volatile != 0 {
		t.Fatalf("budget truncation: %+v", tsel)
	}
}

// TestSchedulerRotationCoversStableMass asserts every stable address is
// probed at least once within any StableEvery consecutive epochs — the
// staleness-detection lag bound.
func TestSchedulerRotationCoversStableMass(t *testing.T) {
	var universe []ipaddr.Addr
	for i := uint64(0); i < 500; i++ {
		universe = append(universe, ipaddr.MustParse("2001:db8:2::").AddLo(i*7))
	}
	universe = ipaddr.DedupSorted(universe)
	tr := newTracker(universe, 0.5, 3)
	observe(tr, 1, universe, universe...) // all stable and up

	const stableEvery = 4
	s := newScheduler(schedulerConfig{StableEvery: stableEvery})
	probed := ipaddr.NewSet()
	for e := 2; e < 2+stableEvery; e++ {
		sel := s.Select(e, tr)
		probed.AddAll(sel.Targets)
		// Each slice is roughly a quarter of the mass, never all of it.
		if len(sel.Targets) == len(universe) {
			t.Fatalf("epoch %d probed the full universe", e)
		}
	}
	if probed.Len() != len(universe) {
		t.Fatalf("rotation covered %d of %d within %d epochs", probed.Len(), len(universe), stableEvery)
	}

	// Determinism: the same epoch plans the same targets.
	a := s.Select(9, tr)
	b := s.Select(9, tr)
	if len(a.Targets) != len(b.Targets) {
		t.Fatal("selection not deterministic")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

// Lifetime is the observed alive span in epochs (inclusive); zero before
// the first response.
func (s *addrState) Lifetime() int {
	if s.UpCount == 0 {
		return 0
	}
	return s.LastSeen - s.FirstSeen + 1
}

// len reports how many addresses have been observed at least once.
func (t *Tracker) len() int { return t.tracked }

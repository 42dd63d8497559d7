// Package longitudinal runs scanning as an ongoing service rather than a
// one-shot experiment: an epoch-driven daemon re-scans a budgeted target
// set as the world's epoch clock advances, tracks per-address lifetime,
// stability, and volatility (averaged per /64 when scheduling), confirms
// stale seeds instead of trusting a single miss, and publishes each
// epoch's believed-alive view as a new hitlistdb generation.
//
// This is the paper's §6.2 staleness critique turned into machinery: the
// published hitlist decays between builds, and a scanner that re-scans
// everything every epoch wastes most of its budget confirming what it
// already knows. The volatility-prioritized scheduler spends probes where
// the answer is uncertain — new candidates, hosts pending stale
// confirmation, flappy addresses — and only rotates slowly through the
// stable mass.
//
// The package deliberately does not import internal/experiment: the
// experiment harness builds RQ5's metrics-over-time table on top of a
// Daemon, not the other way around.
package longitudinal

import (
	"slices"

	"seedscan/internal/ipaddr"
)

// Default tracker parameters.
const (
	// DefaultStaleAfter is how many consecutive down observations confirm
	// an address stale. One miss is routinely a flap or packet loss; the
	// cool-down mirrors the dealiasing daemon's confirm-then-cool rule.
	DefaultStaleAfter = 3
	// DefaultAlpha is the EWMA weight of the newest flap observation.
	DefaultAlpha = 0.5
)

// addrState is the tracked longitudinal state of one address. Epoch
// numbers are world epochs; counters cover probed epochs only (an epoch
// the scheduler skipped an address leaves its state untouched).
type addrState struct {
	// FirstSeen / LastSeen are the first and most recent epochs the
	// address answered. Zero values are meaningless until UpCount > 0.
	FirstSeen int
	LastSeen  int
	// LastProbed is the most recent epoch the address was probed.
	LastProbed int
	// Observed counts probed epochs; UpCount how many answered.
	Observed int
	UpCount  int
	// Flaps counts observed up↔down transitions (either direction).
	Flaps int
	// ConsecDown / ConsecUp are the current observation streaks.
	ConsecDown int
	ConsecUp   int
	// Up is the most recent observation.
	Up bool
	// Volatility is the EWMA of the state-changed indicator: 1 when an
	// observation differed from the previous one, 0 when it repeated it.
	// It decays geometrically while an address holds steady, so a host
	// that flapped long ago eventually reads as stable again.
	Volatility float64
	// Stale is set once ConsecDown reaches the tracker's threshold and
	// cleared if the address ever answers again (a resurrection).
	Stale bool
}

// observeStats summarizes one Observe call.
type observeStats struct {
	// Probed / Up are the observation counts of this epoch.
	Probed, Up int
	// Flaps counts state changes observed this epoch.
	Flaps int
	// NewlyStale counts addresses whose stale status was confirmed this
	// epoch; Resurrected counts confirmed-stale addresses that answered.
	NewlyStale, Resurrected int
}

// Tracker folds per-epoch scan observations into longitudinal state. It
// is a deterministic pure fold: replaying the same (epoch, probed,
// responsive) sequence reproduces identical state, which is what lets a
// killed daemon rebuild itself from checkpointed cell results.
//
// State is kept by position: states[i] belongs to universe[i], the
// daemon's sorted, unique target universe, and Observed == 0 marks an
// address never probed. Every per-epoch step is a linear pass in universe
// order, so the tracker's outputs (Alive, ConfirmedStale) come out sorted
// without sorting.
//
// Not safe for concurrent use; the daemon observes one epoch at a time.
type Tracker struct {
	alpha      float64
	staleAfter int
	universe   []ipaddr.Addr
	states     []addrState
	// hit marks the positions that answered the latest Observe.
	hit []bool
	// tracked, stale and alive count the observed, confirmed-stale and
	// believed-alive positions.
	tracked, stale, alive int
}

// newTracker builds a tracker over universe, which must be sorted and
// unique; the tracker keeps it. Non-positive parameters get the defaults.
func newTracker(universe []ipaddr.Addr, alpha float64, staleAfter int) *Tracker {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	if staleAfter <= 0 {
		staleAfter = DefaultStaleAfter
	}
	return &Tracker{
		alpha:      alpha,
		staleAfter: staleAfter,
		universe:   universe,
		states:     make([]addrState, len(universe)),
		hit:        make([]bool, len(universe)),
	}
}

// pos returns a's universe position, or -1 if a is not in the universe.
func (t *Tracker) pos(a ipaddr.Addr) int {
	i, ok := slices.BinarySearchFunc(t.universe, a, ipaddr.Addr.Compare)
	if !ok {
		return -1
	}
	return i
}

// state returns the tracked state of a, or nil if a was never probed.
// The returned pointer is live; callers must not mutate it.
func (t *Tracker) state(a ipaddr.Addr) *addrState {
	if i := t.pos(a); i >= 0 && t.states[i].Observed > 0 {
		return &t.states[i]
	}
	return nil
}

// observe folds one epoch's scan into the tracker: every address in
// targets (sorted, as a Selection's are) was sent a probe, and responded
// iff it is in hits (any order). Targets outside the universe, and
// repeats, are ignored.
func (t *Tracker) observe(epoch int, targets, hits []ipaddr.Addr) observeStats {
	clear(t.hit)
	for _, a := range hits {
		if i := t.pos(a); i >= 0 {
			t.hit[i] = true
		}
	}
	var stats observeStats
	i := 0
	for _, a := range targets {
		for i < len(t.universe) && t.universe[i].Less(a) {
			i++
		}
		if i == len(t.universe) || t.universe[i] != a {
			continue
		}
		st, up := &t.states[i], t.hit[i]
		i++
		if st.Observed == 0 {
			t.tracked++
		} else if believedAlive(st) {
			t.alive--
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
				t.stale--
				stats.Resurrected++
			}
			t.alive++
		} else {
			st.ConsecDown++
			st.ConsecUp = 0
			if !st.Stale && st.ConsecDown >= t.staleAfter {
				st.Stale = true
				t.stale++
				stats.NewlyStale++
			}
		}
	}
	return stats
}

// believedAlive reports whether a state counts toward Alive.
func believedAlive(st *addrState) bool { return st.Up && !st.Stale }

// aliveSet returns the believed-alive set: every address whose most recent
// observation was a response and which is not confirmed stale, added in
// universe (ascending) order.
func (t *Tracker) aliveSet() *ipaddr.Set {
	out := ipaddr.NewSetCap(t.alive)
	for i := range t.states {
		if believedAlive(&t.states[i]) {
			out.Add(t.universe[i])
		}
	}
	return out
}

// ConfirmedStale returns the confirmed-stale addresses, sorted — the
// seeds a treatment construction should drop.
func (t *Tracker) ConfirmedStale() []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, t.stale)
	for i := range t.states {
		if t.states[i].Stale {
			out = append(out, t.universe[i])
		}
	}
	return out
}

// staleCount reports how many addresses are currently confirmed stale.
func (t *Tracker) staleCount() int { return t.stale }

package longitudinal

import (
	"cmp"
	"slices"

	"seedscan/internal/ipaddr"
)

// Default scheduler parameters.
const (
	// DefaultStableEvery is the stable-host refresh period: a host the
	// model considers stable is re-probed once every this many epochs, on
	// a rotation determined by its address hash — the bound on how long a
	// quiet death can go unnoticed.
	DefaultStableEvery = 4
	// defaultVolatilityFloor separates "probe every epoch" from "rotate":
	// addresses whose predicted volatility is below it join the stable
	// rotation instead of the per-epoch volatile class.
	defaultVolatilityFloor = 0.05
)

// schedulerConfig sizes a Scheduler. Zero values get defaults; Budget 0
// means unlimited.
type schedulerConfig struct {
	// Budget caps how many targets one epoch may probe.
	Budget int
	// StableEvery is the stable-host refresh period.
	StableEvery int
	// VolatilityFloor is the volatile-class threshold.
	VolatilityFloor float64
	// Seed keys the rotation hash, so two daemons over the same universe
	// can stagger their refresh phases.
	Seed uint64
}

func (c *schedulerConfig) fillDefaults() {
	if c.StableEvery <= 0 {
		c.StableEvery = DefaultStableEvery
	}
	if c.VolatilityFloor <= 0 {
		c.VolatilityFloor = defaultVolatilityFloor
	}
}

// selection is one epoch's probe plan. Targets is sorted and sized
// exactly; the class counters report how the budget was spent and Saved
// how many eligible (non-stale) universe addresses were skipped — the
// probes a full re-scan would have spent.
type selection struct {
	Targets []ipaddr.Addr
	// New counts never-probed candidates; PendingStale addresses mid
	// stale confirmation; Volatile the predicted-volatile class;
	// StableRefresh the rotation slice of the stable mass.
	New, PendingStale, Volatile, StableRefresh int
	// Eligible is the non-stale universe size; Saved = Eligible − probed.
	Eligible, Saved int
}

// scheduler turns tracker state into a budgeted, volatility-prioritized
// probe plan. Selection is deterministic: identical tracker state produces
// identical plans, which the daemon's resume depends on. Its scratch
// (per-position classes, the volatile class) is kept across epochs, so a
// warm Select allocates only its Targets; it is not safe for concurrent
// use.
type scheduler struct {
	cfg      schedulerConfig
	class    []class
	volatile []volPos
}

// class is a universe position's scheduling class in one Select.
type class uint8

const (
	classStale class = iota // confirmed stale: not probed
	classNew
	classPending
	classVolatile
	classRotation // stable, on this epoch's rotation phase
	// classIdle is eligible but not probed this epoch: stable off the
	// rotation phase, or volatile and cut by the budget.
	classIdle
	numClasses
)

// volPos is a volatile-class member: its universe position and predicted
// volatility.
type volPos struct {
	i int32
	v float64
}

// newScheduler builds a scheduler.
func newScheduler(cfg schedulerConfig) *scheduler {
	cfg.fillDefaults()
	return &scheduler{cfg: cfg}
}

// rotHash is a splitmix64-style mix placing an address on the stable
// rotation wheel.
func rotHash(seed uint64, a ipaddr.Addr) uint64 {
	x := seed ^ a.Hi() ^ (a.Lo() * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Select plans one epoch's probes over the tracker's universe. Priority
// order under the budget cap:
//
//  1. never-probed candidates (every address deserves one observation),
//  2. addresses pending stale confirmation (down, not yet confirmed —
//     probed every epoch until resolved, the cool-down),
//  3. the volatile class, most volatile first (predicted volatility is
//     the address EWMA blended with its /64's mean, so one flappy host
//     raises suspicion on its whole prefix),
//  4. the stable rotation slice for this epoch.
//
// Within a class a truncating budget keeps the lowest addresses (for the
// volatile class, ties in volatility). Confirmed-stale addresses are not
// probed at all — they re-enter only through the universe changing (or a
// later resurrection policy).
//
// The universe is sorted, so each /64 is a contiguous run: one pass takes
// each run's mean volatility and classifies its members, and a second
// emits the chosen positions in universe order, so Targets comes out
// sorted and sized exactly.
func (s *scheduler) Select(epoch int, tr *Tracker) selection {
	u, states := tr.universe, tr.states
	s.class = slices.Grow(s.class[:0], len(u))[:len(u)]
	s.volatile = s.volatile[:0]
	every := uint64(s.cfg.StableEvery)
	phase := uint64(epoch) % every

	var count [numClasses]int
	for lo := 0; lo < len(u); {
		hi := lo + 1
		for hi < len(u) && u[hi].Hi() == u[lo].Hi() {
			hi++
		}
		// The /64's mean volatility over its observed members.
		var sum float64
		n := 0
		for i := lo; i < hi; i++ {
			if states[i].Observed > 0 {
				sum += states[i].Volatility
				n++
			}
		}
		half := 0.0
		if n > 0 {
			half = sum / float64(n) / 2
		}
		for i := lo; i < hi; i++ {
			st := &states[i]
			c := classStale
			switch {
			case st.Observed == 0:
				c = classNew
			case st.Stale:
			case st.ConsecDown >= 1:
				c = classPending
			default:
				v := max(st.Volatility, half)
				switch {
				case v >= s.cfg.VolatilityFloor:
					c = classVolatile
					s.volatile = append(s.volatile, volPos{int32(i), v})
				case rotHash(s.cfg.Seed, u[i])%every == phase:
					c = classRotation
				default:
					c = classIdle
				}
			}
			s.class[i] = c
			count[c]++
		}
		lo = hi
	}

	sel := selection{Eligible: len(u) - count[classStale]}

	budget := s.cfg.Budget
	if budget <= 0 {
		budget = sel.Eligible
	}
	room := budget
	take := func(n int) int {
		n = min(n, room)
		room -= n
		return n
	}
	sel.New = take(count[classNew])
	sel.PendingStale = take(count[classPending])
	sel.Volatile = take(count[classVolatile])
	sel.StableRefresh = take(count[classRotation])
	if sel.Volatile < len(s.volatile) {
		slices.SortFunc(s.volatile, func(a, b volPos) int {
			if a.v != b.v {
				return cmp.Compare(b.v, a.v)
			}
			return cmp.Compare(a.i, b.i)
		})
		for _, vp := range s.volatile[sel.Volatile:] {
			s.class[vp.i] = classIdle
		}
	}

	// Emit in universe order; each class keeps its first members.
	left := [numClasses]int{
		classNew:      sel.New,
		classPending:  sel.PendingStale,
		classVolatile: sel.Volatile,
		classRotation: sel.StableRefresh,
	}
	sel.Targets = make([]ipaddr.Addr, 0, budget-room)
	for i, c := range s.class {
		if len(sel.Targets) == cap(sel.Targets) {
			break
		}
		if left[c] > 0 {
			left[c]--
			sel.Targets = append(sel.Targets, u[i])
		}
	}
	sel.Saved = sel.Eligible - len(sel.Targets)
	return sel
}

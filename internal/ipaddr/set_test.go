package ipaddr

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func addrsFrom(ss ...string) []Addr {
	out := make([]Addr, len(ss))
	for i, s := range ss {
		out[i] = MustParse(s)
	}
	return out
}

func sameAddrs(t *testing.T, what string, got, want []Addr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d addresses, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: order differs at %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a := MustParse("2001:db8::1")
	if !s.Add(a) {
		t.Fatal("first Add should report new")
	}
	if s.Add(a) {
		t.Fatal("second Add should report existing")
	}
	if !s.Contains(a) || s.Len() != 1 {
		t.Fatal("Contains/Len wrong")
	}
}

func TestSetAddContains(t *testing.T) {
	s := NewSetCap(4)
	a := MustParse("2001:db8::1")
	b := MustParse("2001:db8::2")
	if !s.Add(a) {
		t.Fatal("first Add reported duplicate")
	}
	if s.Add(a) {
		t.Fatal("second Add reported new")
	}
	if !s.Contains(a) || s.Contains(b) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	// The zero address is a valid member (index+1 slots, 0 = empty).
	var zero Addr
	if s.Contains(zero) {
		t.Fatal("zero address reported present")
	}
	if !s.Add(zero) || !s.Contains(zero) {
		t.Fatal("zero address not storable")
	}
}

func TestSetGrowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := new(Set) // the zero value: growth starts from no table at all
	ref := make(map[addrKey]bool)
	var order []Addr
	base := MustParse("2001:db8::")
	for i := 0; i < 20000; i++ {
		a := base.AddLo(uint64(rng.Intn(8000)))
		if got, want := s.Add(a), !ref[keyOf(a)]; got != want {
			t.Fatalf("Add(%v) = %v, want %v", a, got, want)
		}
		if !ref[keyOf(a)] {
			order = append(order, a)
		}
		ref[keyOf(a)] = true
	}
	for _, a := range order {
		if !s.Contains(a) {
			t.Fatalf("lost %v after growth", a)
		}
	}
	// Insertion order is preserved across growth: Slice is duplicate-free,
	// complete, and in first-seen order.
	sameAddrs(t, "Slice", s.Slice(), order)
}

func TestSetFromSlice(t *testing.T) {
	s := NewSet(addrsFrom("::1", "::2", "::1")...)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	sameAddrs(t, "Slice", s.Slice(), addrsFrom("::1", "::2"))
}

// addrKey keys the reference maps by an address's two halves, so the
// references share nothing with Set, not even Addr's own equality.
type addrKey [2]uint64

func keyOf(a Addr) addrKey { return addrKey{a.Hi(), a.Lo()} }

// setModel is the reference the model test drives Set against: a map for
// membership plus a slice holding first-seen order.
type setModel struct {
	in    map[addrKey]struct{}
	order []Addr
}

func newSetModel() *setModel { return &setModel{in: make(map[addrKey]struct{})} }

func (m *setModel) add(addrs ...Addr) {
	for _, a := range addrs {
		if !m.has(a) {
			m.in[keyOf(a)] = struct{}{}
			m.order = append(m.order, a)
		}
	}
}

func (m *setModel) filter(keep func(Addr) bool) *setModel {
	out := newSetModel()
	for _, a := range m.order {
		if keep(a) {
			out.add(a)
		}
	}
	return out
}

func (m *setModel) has(a Addr) bool { _, ok := m.in[keyOf(a)]; return ok }

func checkAgainstModel(t *testing.T, what string, s *Set, m *setModel, probes []Addr) {
	t.Helper()
	if s.Len() != len(m.order) {
		t.Fatalf("%s: Len = %d, want %d", what, s.Len(), len(m.order))
	}
	sameAddrs(t, what+" Slice", s.Slice(), m.order)
	var each []Addr
	s.Each(func(a Addr) { each = append(each, a) })
	sameAddrs(t, what+" Each", each, m.order)
	for _, a := range probes {
		if s.Contains(a) != m.has(a) {
			t.Fatalf("%s: Contains(%v) = %v, want %v", what, a, s.Contains(a), m.has(a))
		}
	}
}

// TestSetMatchesModel drives random Add/AddAll/AddSet/Clone/Filter/Diff/
// Intersect sequences against the reference, on the structured addresses
// dedupHash was written for (a few /64s, sequential low bits), from the zero
// value through several table growths (16 → 32 → … slots).
func TestSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	draw := func() Addr {
		return AddrFrom64s(0x20010db800000000+uint64(rng.Intn(4)), uint64(rng.Intn(3000)))
	}
	drawN := func(n int) []Addr {
		out := make([]Addr, n)
		for i := range out {
			out[i] = draw()
		}
		return out
	}
	s, m := new(Set), newSetModel()
	other, otherM := NewSet(), newSetModel()
	for step := 0; step < 400; step++ {
		probes := drawN(50)
		switch op := rng.Intn(8); op {
		case 0, 1:
			a := draw()
			if got, want := s.Add(a), !m.has(a); got != want {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, a, got, want)
			}
			m.add(a)
		case 2:
			batch := drawN(rng.Intn(120))
			s.AddAll(batch)
			m.add(batch...)
		case 3:
			batch := drawN(rng.Intn(200))
			other.AddAll(batch)
			otherM.add(batch...)
			s.AddSet(other)
			m.add(otherM.order...)
		case 4:
			c := s.Clone()
			checkAgainstModel(t, "Clone", c, m, probes)
			c.Add(MustParse("::1")) // a clone is independent of its source
			if s.Contains(MustParse("::1")) {
				t.Fatal("Clone shares its table with the source")
			}
		case 5:
			keep := func(a Addr) bool { return a.Lo()%3 != 0 }
			checkAgainstModel(t, "Filter", s.filter(keep), m.filter(keep), probes)
		case 6:
			checkAgainstModel(t, "Diff", s.Diff(other), m.filter(func(a Addr) bool { return !otherM.has(a) }), probes)
			checkAgainstModel(t, "Diff(nil)", s.Diff(nil), m, probes)
		case 7:
			checkAgainstModel(t, "Intersect", s.Intersect(other), m.filter(otherM.has), probes)
		}
		checkAgainstModel(t, "receiver", s, m, probes)
	}
	if s.Len() < 3*16 {
		t.Fatalf("only %d addresses: the table did not grow three times", s.Len())
	}
}

func TestSetZeroAndNil(t *testing.T) {
	a := MustParse("2001:db8::1")
	var zero Set
	if zero.Contains(a) || zero.Len() != 0 || len(zero.Slice()) != 0 || zero.Clone().Len() != 0 {
		t.Fatal("zero Set is not empty")
	}
	if !zero.Add(a) || !zero.Contains(a) || zero.Len() != 1 {
		t.Fatal("zero Set not usable for writes")
	}
	var null *Set
	if null.Contains(a) || null.Len() != 0 || null.Slice() != nil || len(null.Sorted()) != 0 {
		t.Fatal("nil Set reads are not empty")
	}
	null.Each(func(Addr) { t.Fatal("nil Set Each called fn") })
	zero.AddSet(null)
	if zero.Len() != 1 || zero.Intersect(null).Len() != 0 || zero.Diff(null).Len() != 1 {
		t.Fatal("nil argument not treated as empty")
	}
}

// mallocs reports how many heap objects one call of fn allocates, with
// collection off so that a collection adds none of its own.
func mallocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSetReset resets sets of several shapes for n addresses: each must
// forget its old members and then, after the same adds, answer Contains,
// Len and Slice as NewSetCap(n) does. Reset allocates nothing when the
// set's storage fits n; when it does not, Reset reserves, so the n adds
// that follow allocate nothing.
func TestSetReset(t *testing.T) {
	base := MustParse("2001:db8::")
	span := func(from, n int) []Addr {
		out := make([]Addr, n)
		for i := range out {
			out[i] = base.AddLo(uint64(from + i))
		}
		return out
	}
	for _, c := range []struct {
		name      string
		old       func() *Set
		n         int
		allocates bool
	}{
		{"grown set, fewer", func() *Set { return NewSet(span(0, 1000)...) }, 100, false},
		{"grown set, as many", func() *Set { return NewSet(span(0, 1000)...) }, 1000, false},
		{"presized, unused", func() *Set { return NewSetCap(5000) }, 5000, false},
		{"small set, more", func() *Set { return NewSet(span(0, 10)...) }, 5000, true},
		{"zero value", func() *Set { return new(Set) }, 0, true},
		{"table fits, backing slice does not", func() *Set { return NewSetCap(0) }, 8, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			old := span(0, 1000)
			s := c.old()
			if got := mallocs(func() { s.Reset(c.n) }); (got > 0) != c.allocates {
				t.Errorf("Reset(%d) allocates %d objects, want allocation %v", c.n, got, c.allocates)
			}
			if s.Len() != 0 || s.Contains(old[0]) || len(s.Slice()) != 0 {
				t.Fatalf("after Reset: Len %d, old member present %v", s.Len(), s.Contains(old[0]))
			}
			// The adds overlap the old members, which must read as new.
			adds := span(c.n/2, c.n)
			fresh := 0
			if got := mallocs(func() {
				for _, a := range adds {
					if s.Add(a) {
						fresh++
					}
				}
			}); got != 0 {
				t.Errorf("%d adds after Reset(%d) allocate %d objects, want none", c.n, c.n, got)
			}
			if fresh != c.n {
				t.Errorf("%d of %d adds after Reset were new", fresh, c.n)
			}
			want := NewSetCap(c.n)
			want.AddAll(adds)
			if s.Len() != want.Len() {
				t.Fatalf("Len %d, want %d", s.Len(), want.Len())
			}
			sameAddrs(t, "Slice", s.Slice(), want.Slice())
			for _, a := range append(old, span(2000, 100)...) {
				if s.Contains(a) != want.Contains(a) {
					t.Fatalf("Contains(%v) = %v, want %v", a, s.Contains(a), want.Contains(a))
				}
			}
		})
	}
}

func TestSetSliceIsACopy(t *testing.T) {
	s := NewSet(addrsFrom("::3", "::1", "::2")...)
	got := s.Slice()
	sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
	sameAddrs(t, "Slice after the caller sorted its copy", s.Slice(), addrsFrom("::3", "::1", "::2"))
}

// Grid cells call allowed.Contains on one shared set in parallel; run under
// -race this pins that reads touch no shared mutable state.
func TestSetConcurrentReaders(t *testing.T) {
	base := MustParse("2001:db8::")
	s := NewSet()
	for i := 0; i < 5000; i++ {
		s.Add(base.AddLo(uint64(2 * i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 10000; i++ {
				if s.Contains(base.AddLo(uint64(i))) {
					n++
				}
			}
			if n != 5000 || s.Len() != 5000 || len(s.Slice()) != 5000 || s.Intersect(s).Len() != 5000 {
				t.Errorf("concurrent reader saw %d members", n)
			}
		}()
	}
	wg.Wait()
}

func TestSetOps(t *testing.T) {
	a := NewSet(addrsFrom("::1", "::2", "::3")...)
	b := NewSet(addrsFrom("::2", "::3", "::4")...)

	if got := a.Intersect(b).Len(); got != 2 {
		t.Errorf("Intersect len = %d", got)
	}
	if got := a.Diff(b).Len(); got != 1 || !a.Diff(b).Contains(MustParse("::1")) {
		t.Errorf("Diff wrong: len=%d", got)
	}
	if got := b.Diff(a).Len(); got != 1 || !b.Diff(a).Contains(MustParse("::4")) {
		t.Errorf("reverse Diff wrong: len=%d", got)
	}
}

func TestSetCloneIndependent(t *testing.T) {
	a := NewSet(addrsFrom("::1")...)
	c := a.Clone()
	c.Add(MustParse("::2"))
	if a.Len() != 1 || c.Len() != 2 {
		t.Fatal("Clone not independent")
	}
}

func TestSetSortedOrder(t *testing.T) {
	s := NewSet(addrsFrom("::3", "::1", "::2")...)
	got := s.Sorted()
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("Sorted out of order at %d", i)
		}
	}
}

func TestSetFilter(t *testing.T) {
	s := NewSet(addrsFrom("::1", "::2", "::3", "::4")...)
	even := s.filter(func(a Addr) bool { return a.Lo()%2 == 0 })
	if even.Len() != 2 {
		t.Fatalf("Filter len = %d", even.Len())
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	mk := func(xs []uint16) *Set {
		s := NewSet()
		for _, x := range xs {
			s.Add(AddrFrom64s(0, uint64(x)%64)) // small domain forces overlap
		}
		return s
	}
	inclusionExclusion := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		union := a.Clone()
		union.AddSet(b)
		return union.Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(inclusionExclusion, nil); err != nil {
		t.Fatal(err)
	}
	diffDisjoint := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		return a.Diff(b).Intersect(b).Len() == 0
	}
	if err := quick.Check(diffDisjoint, nil); err != nil {
		t.Fatal(err)
	}
	partition := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		return a.Diff(b).Len()+a.Intersect(b).Len() == a.Len()
	}
	if err := quick.Check(partition, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDedup(t *testing.T) {
	in := addrsFrom("::1", "::2", "::1", "::3", "::2")
	sameAddrs(t, "Dedup", new(Deduper).Append(nil, in), addrsFrom("::1", "::2", "::3"))
}

// The scanner dedups every target list per scan: one table and one output
// slice, whatever the input size, and first-seen order.
func TestDedupAllocsAndOrder(t *testing.T) {
	base := MustParse("2001:db8::")
	in := make([]Addr, 300000)
	var want []Addr
	for i := range in {
		in[i] = base.AddLo(uint64(i % 200000))
		if i < 200000 {
			want = append(want, in[i])
		}
	}
	sameAddrs(t, "Dedup", new(Deduper).Append(nil, in), want)
	// A collection started by these multi-megabyte allocations is itself
	// counted by AllocsPerRun, so hold the collector off while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(3, func() { new(Deduper).Append(nil, in) }); n > 2 {
		t.Fatalf("a fresh Deduper allocates %v times per call, want at most 2", n)
	}
}

// TestDeduperMatchesDedup runs one Deduper over lists that grow, shrink
// and grow again: every call must equal a fresh Deduper's, after any dst prefix, so a
// slot left set by an earlier list shows up as a missing address, and
// every call must leave the table clear. A short list whose addresses
// share one slot of the big table checks the clearing of a probe chain.
// Once the table is warm and dst has room, Append allocates nothing.
func TestDeduperMatchesDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	list := func(n int) []Addr {
		base := MustParse("2001:db8:d0::")
		out := make([]Addr, n)
		for i := range out {
			// About a third of the entries repeat an earlier address.
			out[i] = base.AddLo(uint64(rng.Intn(2*n/3 + 1)))
		}
		return out
	}
	// colliding returns n distinct addresses in the slot a table of size
	// slots puts ::1, and ::1 again.
	colliding := func(slots, n int) []Addr {
		out := []Addr{MustParse("::1")}
		mask := uint64(slots - 1)
		for i := uint64(2); len(out) < n; i++ {
			if a := MustParse("::").AddLo(i); dedupHash(a)&mask == dedupHash(out[0])&mask {
				out = append(out, a)
			}
		}
		return append(out, out[0])
	}
	prefix := addrsFrom("::1", "::2")
	var d Deduper
	for _, n := range []int{1, 10000, 3, 10000, -4, 0, 64} {
		var in []Addr
		if n >= 0 {
			in = list(n)
		} else {
			in = colliding(len(d.set.table), -n)
		}
		want := new(Deduper).Append(nil, in)
		sameAddrs(t, "Append(nil)", d.Append(nil, in), want)
		got := d.Append(slices.Clone(prefix), in)
		sameAddrs(t, "Append(prefix) prefix", got[:len(prefix)], prefix)
		sameAddrs(t, "Append(prefix) tail", got[len(prefix):], want)
		if i := slices.IndexFunc(d.set.table, func(v int32) bool { return v != 0 }); i >= 0 {
			t.Fatalf("after a %d-address list, table slot %d is still set", len(in), i)
		}
	}

	in := list(10000)
	dst := make([]Addr, 0, len(in))
	d.Append(dst, in)
	if n := testing.AllocsPerRun(10, func() { d.Append(dst, in) }); n != 0 {
		t.Fatalf("warm Append allocates %v times per call, want 0", n)
	}
}

func TestDigestOrderAndContentSensitivity(t *testing.T) {
	a := []Addr{MustParse("::1"), MustParse("::2"), MustParse("::3")}
	b := []Addr{MustParse("::2"), MustParse("::1"), MustParse("::3")}
	c := []Addr{MustParse("::1"), MustParse("::2")}
	if Digest(a) != Digest(a) {
		t.Fatal("digest not deterministic")
	}
	if Digest(a) == Digest(b) {
		t.Fatal("digest ignores order")
	}
	if Digest(a) == Digest(c) {
		t.Fatal("digest ignores length")
	}
	if Digest(nil) != Digest([]Addr{}) {
		t.Fatal("empty digests differ")
	}
}

// Mix64's outputs are pinned by every seeded decision in the world, the
// scanner, the dealiaser and the collectors; this pins the fold itself.
func TestMix64(t *testing.T) {
	smix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	if got, want := Mix64(), uint64(0x2545f4914f6cdd1d); got != want {
		t.Fatalf("Mix64() = %#x, want %#x", got, want)
	}
	if got, want := Mix64(1, 2), smix(smix(0x2545f4914f6cdd1d^1)^2); got != want {
		t.Fatalf("Mix64(1, 2) = %#x, want %#x", got, want)
	}
}

// TestMixOnContinuesMix64 pins the prefix identity callers rely on when
// they store Mix64 of their leading values: continuing from it with
// MixOn folds exactly what one Mix64 call over every value folds, at any
// split point, and MixOn with nothing to add is the prefix itself.
func TestMixOnContinuesMix64(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		vals := make([]uint64, rng.Intn(7))
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		want := Mix64(vals...)
		for k := 0; k <= len(vals); k++ {
			if got := MixOn(Mix64(vals[:k]...), vals[k:]...); got != want {
				t.Fatalf("MixOn(Mix64(%x), %x) = %#x, want Mix64 of all = %#x", vals[:k], vals[k:], got, want)
			}
		}
	}
	if got, want := MixOn(0x2545f4914f6cdd1d, 1, 2), Mix64(1, 2); got != want {
		t.Fatalf("MixOn from Mix64's constant = %#x, want Mix64(1, 2) = %#x", got, want)
	}
}

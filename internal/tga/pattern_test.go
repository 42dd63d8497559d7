package tga

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"seedscan/internal/ipaddr"
)

// newLeafGen starts a generator over masks. A non-nil widenOrder replaces
// the default widening order: the positions allowed to widen, most
// preferred first; empty allows none.
func newLeafGen(masks [ipaddr.NybbleCount]ValueMask, widenOrder []int) *leafGen {
	g := new(leafGen)
	g.start(&masks)
	if widenOrder != nil {
		for i, p := range widenOrder {
			g.order[i] = int8(p)
		}
		g.nOrder = int8(len(widenOrder))
	}
	return g
}

// pinnedMasks allows exactly value v at every position.
func pinnedMasks(v byte) [ipaddr.NybbleCount]ValueMask {
	var masks [ipaddr.NybbleCount]ValueMask
	for i := range masks {
		masks[i] = 1 << v
	}
	return masks
}

// fits reports whether every nybble of a is allowed by masks.
func fits(a ipaddr.Addr, masks *[ipaddr.NybbleCount]ValueMask) bool {
	for i, m := range masks {
		if m&(1<<a.Nybble(i)) == 0 {
			return false
		}
	}
	return true
}

// randomMasks pins every position and then gives up to three of them 1-3
// random values, returning the masks and the product size.
func randomMasks(rng *rand.Rand) ([ipaddr.NybbleCount]ValueMask, int) {
	masks := pinnedMasks(byte(rng.Intn(16)))
	for k := 0; k < 3; k++ {
		pos := rng.Intn(ipaddr.NybbleCount)
		masks[pos] = 0
		for n := 1 + rng.Intn(3); bits.OnesCount16(masks[pos]) < n; {
			masks[pos] |= 1 << rng.Intn(16)
		}
	}
	return masks, int(MaskSize(masks))
}

func TestMaskEnumCountsMatchProduct(t *testing.T) {
	// For random small masks, the enumerator must produce exactly the
	// cartesian product size, all distinct, all within the masks.
	f := func(seed int64) bool {
		masks, expect := randomMasks(rand.New(rand.NewSource(seed)))
		e := maskEnum{masks: masks}
		seen := ipaddr.NewSet()
		count := 0
		for {
			a, ok := e.next()
			if !ok {
				break
			}
			if !seen.Add(a) || !fits(a, &masks) {
				return false
			}
			count++
			if count > expect {
				return false
			}
		}
		return count == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskEnumEmptyPosition(t *testing.T) {
	e := maskEnum{masks: pinnedMasks(0)}
	e.masks[5] = 0 // impossible position
	if _, ok := e.next(); ok {
		t.Fatal("enumerated with an empty position")
	}
	if _, ok := (&maskEnum{}).next(); ok {
		t.Fatal("the zero enumerator enumerated")
	}
}

func TestLeafGenFirstJobIsAscendingProduct(t *testing.T) {
	// Before any widening a generator yields the product of its masks —
	// exactly MaskSize of them — in strictly ascending address order.
	f := func(seed int64) bool {
		masks, size := randomMasks(rand.New(rand.NewSource(seed)))
		g := newLeafGen(masks, nil)
		var prev ipaddr.Addr
		for i := 0; i < size; i++ {
			a, ok := g.Next()
			if !ok || !fits(a, &masks) || (i > 0 && !prev.Less(a)) {
				return false
			}
			prev = a
		}
		// The product is spent: whatever comes next needed a widening.
		a, ok := g.Next()
		return !ok || !fits(a, &masks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafGenStreamAcrossWidenings(t *testing.T) {
	// Across many widenings no address repeats, the allowed values only
	// ever grow, and every address fits the masks as widened when it was
	// returned.
	f := func(seed int64) bool {
		masks, size := randomMasks(rand.New(rand.NewSource(seed)))
		g := newLeafGen(masks, nil)
		seen := ipaddr.NewSet()
		allowed := masks
		for i := 0; i < size+3000; i++ {
			a, ok := g.Next()
			if !ok {
				break
			}
			for p := range allowed {
				if g.masks[p]&allowed[p] != allowed[p] {
					return false // a value was withdrawn
				}
			}
			allowed = g.masks
			if !seen.Add(a) || !fits(a, &allowed) {
				return false
			}
		}
		// Sixteen IID positions can widen, so the stream cannot have dried up.
		return seen.Len() == size+3000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafGenHonoursWidenOrder(t *testing.T) {
	// Only the listed positions widen, most preferred first, round robin.
	g := newLeafGen(pinnedMasks(3), []int{20, 25})
	first, _ := g.Next()
	differs := func(a ipaddr.Addr) (pos []int) {
		for i := 0; i < ipaddr.NybbleCount; i++ {
			if a.Nybble(i) != first.Nybble(i) {
				pos = append(pos, i)
			}
		}
		return pos
	}
	second, _ := g.Next()
	if d := differs(second); len(d) != 1 || d[0] != 20 {
		t.Fatalf("first widening changed positions %v, want [20]", d)
	}
	third, _ := g.Next()
	if third.Nybble(25) == first.Nybble(25) {
		t.Fatalf("second widening left position 25 alone: %v", third)
	}
	n := 3
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		n++
		for _, p := range differs(a) {
			if p != 20 && p != 25 {
				t.Fatalf("position %d widened, not in the order given", p)
			}
		}
	}
	if n != 256 {
		t.Fatalf("two positions fully widened give 256 addresses, got %d", n)
	}
	// An empty order, unlike nil, allows no widening at all.
	g = newLeafGen(pinnedMasks(3), []int{})
	if _, ok := g.Next(); !ok {
		t.Fatal("the observed pattern itself was not generated")
	}
	if a, ok := g.Next(); ok {
		t.Fatalf("widened to %v with an empty order", a)
	}
}

func TestLeafGenEmptyPositionYieldsNothing(t *testing.T) {
	masks := pinnedMasks(1)
	masks[7] = 0
	if a, ok := newLeafGen(masks, nil).Next(); ok {
		t.Fatalf("generated %v from a pattern with an impossible position", a)
	}
}

func TestNearestUnsetProperties(t *testing.T) {
	f := func(m uint16) bool {
		v, ok := nearestUnset(m)
		if m == 0xffff {
			return !ok
		}
		if !ok {
			return false // any non-full mask must have a candidate
		}
		return m&(1<<v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafGenMatchesWidenedMasks(t *testing.T) {
	// Every generated address must conform to the leaf's current masks
	// (which only ever widen), and its fixed prefix must never change.
	seeds := seedsFrom("2001:db8::1", "2001:db8::2", "2001:db8::11")
	masks := observedMasks(seeds)
	g := newLeafGen(masks, nil)
	prefix := ipaddr.MustParsePrefix("2001:db8::/64")
	for i := 0; i < 2000; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		if !prefix.Contains(a) {
			t.Fatalf("candidate %v escaped the fixed prefix", a)
		}
	}
}

func TestMaskSizeEdgeCases(t *testing.T) {
	var masks [ipaddr.NybbleCount]ValueMask
	if MaskSize(masks) != 0 {
		t.Fatal("all-empty mask must have size 0")
	}
	for i := range masks {
		masks[i] = 1
	}
	if MaskSize(masks) != 1 {
		t.Fatal("all-pinned mask must have size 1")
	}
	masks[0] = 0xffff
	if MaskSize(masks) != 16 {
		t.Fatal("one full position must give 16")
	}
}

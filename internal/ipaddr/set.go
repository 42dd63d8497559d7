package ipaddr

import "slices"

// Set is a collection of unique addresses kept in insertion order. Slice,
// Each and every derived set (Clone, Filter, Diff, Intersect) keep the
// receiver's insertion order; AddAll and AddSet append what is new in the
// argument's order.
//
// The layout is flat open addressing: table slots hold index+1 into addrs
// (0 = empty), linear probing, load at most 1/2, doubling growth, no
// removal. The zero value is an empty set ready for use. Read methods
// (Contains, Len, Each, Slice, Sorted) treat a nil set as empty, so snapshot
// consumers can read partially-populated records without guarding every
// access. Concurrent readers are safe; a writer needs exclusion.
type Set struct {
	table []int32
	addrs []Addr
}

// NewSet returns a set holding the unique addresses of addrs, in order.
func NewSet(addrs ...Addr) *Set {
	s := NewSetCap(len(addrs))
	s.AddAll(addrs)
	return s
}

// NewSetCap returns an empty set pre-sized for n addresses.
func NewSetCap(n int) *Set {
	s := new(Set)
	s.reserve(n)
	return s
}

// reserve rebuilds the table with room for n addresses in total.
func (s *Set) reserve(n int) {
	if n > 1<<30 {
		panic("ipaddr: Set larger than 2^30 addresses")
	}
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(s.addrs) < n {
		s.addrs = append(make([]Addr, 0, n), s.addrs...)
	}
	// addrs carries the order, so rehashing just re-derives the slots.
	s.table = make([]int32, size)
	for i, a := range s.addrs {
		s.table[s.slot(a)] = int32(i + 1)
	}
}

// slot returns the table slot that holds a, or the empty one where a
// belongs. The table must not be empty.
func (s *Set) slot(a Addr) uint64 {
	mask := uint64(len(s.table) - 1)
	h := dedupHash(a) & mask
	for s.table[h] != 0 && s.addrs[s.table[h]-1] != a {
		h = (h + 1) & mask
	}
	return h
}

// Add inserts a, reporting whether it was newly added.
func (s *Set) Add(a Addr) bool {
	if 2*(len(s.addrs)+1) > len(s.table) {
		s.reserve(2 * len(s.addrs))
	}
	h := s.slot(a)
	if s.table[h] != 0 {
		return false
	}
	s.addrs = append(s.addrs, a)
	s.table[h] = int32(len(s.addrs))
	return true
}

// AddAll inserts every address in addrs.
func (s *Set) AddAll(addrs []Addr) {
	for _, a := range addrs {
		s.Add(a)
	}
}

// AddSet inserts every address in o (a nil o adds nothing).
func (s *Set) AddSet(o *Set) {
	if o != nil {
		s.AddAll(o.addrs)
	}
}

// Contains reports membership (false for a nil set).
func (s *Set) Contains(a Addr) bool {
	return s != nil && len(s.table) > 0 && s.table[s.slot(a)] != 0
}

// Len returns the number of addresses (0 for a nil set).
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.addrs)
}

// Each calls fn for every address in insertion order.
func (s *Set) Each(fn func(Addr)) {
	if s == nil {
		return
	}
	for _, a := range s.addrs {
		fn(a)
	}
}

// Slice returns the addresses in insertion order, as a fresh copy the
// caller may sort or modify.
func (s *Set) Slice() []Addr {
	if s == nil {
		return nil
	}
	return append(make([]Addr, 0, len(s.addrs)), s.addrs...)
}

// Sorted returns the addresses in ascending numeric order.
func (s *Set) Sorted() []Addr {
	out := s.Slice()
	slices.SortFunc(out, Addr.Compare)
	return out
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	return &Set{
		table: append([]int32(nil), s.table...),
		addrs: append([]Addr(nil), s.addrs...),
	}
}

// filter returns a new set with the addresses of s for which keep returns
// true.
func (s *Set) filter(keep func(Addr) bool) *Set {
	out := NewSetCap(s.Len())
	for _, a := range s.addrs {
		if keep(a) {
			out.Add(a)
		}
	}
	return out
}

// Intersect returns a new set with the addresses of s that are also in o.
func (s *Set) Intersect(o *Set) *Set { return s.filter(o.Contains) }

// Diff returns a new set with the addresses of s that are not in o.
func (s *Set) Diff(o *Set) *Set {
	return s.filter(func(a Addr) bool { return !o.Contains(a) })
}

// Deduper appends the unique addresses of a list, preserving first-seen
// order; a fresh one's Append(nil, addrs) allocates twice in all. Its
// table outlives the call: a Set whose slots are kept, and cleared, from
// one Append to the next, so a caller that dedups list after list (the
// scanner plans every scan) allocates the table once. The zero value is ready to use. A Deduper is not safe for
// concurrent use.
type Deduper struct{ set Set }

// Append appends the unique addresses of addrs to dst in first-seen order
// and returns the extended slice. Like Go's Append functions it grows dst
// at most once, so a dst with room for len(addrs) more is written in
// place; the Deduper keeps no reference to dst or addrs.
func (d *Deduper) Append(dst, addrs []Addr) []Addr {
	base := len(dst)
	if cap(dst)-base < len(addrs) {
		dst = append(make([]Addr, 0, base+len(addrs)), dst...)
	}
	// The set's backing slice is dst's free tail, with room for every
	// address, and its table holds them all at load ≤ ½: Add never grows
	// either, so the unique addresses land in dst as they are added.
	d.set.addrs = dst[base:base]
	if len(d.set.table) < 2*len(addrs) {
		d.set.reserve(len(addrs))
	}
	d.set.AddAll(addrs)
	added := d.set.addrs
	if 8*len(added) < len(d.set.table) {
		// A short list in a table a longer one grew: unset just its
		// slots, newest first, so each lookup sees the table as it was
		// right after that address went in.
		for i := len(added) - 1; i >= 0; i-- {
			d.set.table[d.set.slot(added[i])] = 0
		}
	} else {
		clear(d.set.table)
	}
	d.set.addrs = nil
	return dst[:base+len(added)]
}

// DedupSorted returns addrs with adjacent duplicates removed. On sorted
// input (the canonical seed order) that is full deduplication, in order,
// without hashing. Duplicate-free input is returned as-is, uncopied.
func DedupSorted(addrs []Addr) []Addr {
	for i := 1; i < len(addrs); i++ {
		if addrs[i] == addrs[i-1] {
			out := append([]Addr(nil), addrs[:i]...)
			for ; i < len(addrs); i++ {
				if addrs[i] != addrs[i-1] {
					out = append(out, addrs[i])
				}
			}
			return out
		}
	}
	return addrs
}

// dedupHash folds an address to a table slot with two rounds of multiply-
// xor-shift mixing — enough to spread the structured low bits real target
// lists have (sequential hosts in one /64).
func dedupHash(a Addr) uint64 {
	h := a.hi*0x9e3779b97f4a7c15 ^ a.lo*0xbf58476d1ce4e5b9
	h = (h ^ h>>29) * 0x94d049bb133111eb
	return h ^ h>>32
}

// Digest folds addrs into an order-sensitive 64-bit digest — the seed
// fingerprint the TGA model cache keys on. Callers that need a canonical
// digest (the cache does) must pass the seeds in canonical sorted order.
func Digest(addrs []Addr) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(addrs))
	for _, a := range addrs {
		h ^= dedupHash(a)
		h *= 0x100000001b3
		h ^= h >> 32
	}
	return h
}

// Mix64 folds any number of 64-bit values into one well-mixed value with a
// splitmix64 round per value — the seeded, stateless decision hash shared
// by the world, the scanner, the dealiaser and the seed collectors.
func Mix64(vals ...uint64) uint64 {
	return MixOn(0x2545f4914f6cdd1d, vals...)
}

// MixOn continues a Mix64 fold from h, a value Mix64 returned:
// Mix64(a, b, c) == MixOn(Mix64(a, b), c). A caller that folds the same
// leading values into many hashes computes their prefix once.
func MixOn(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		h = (h ^ v) + 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

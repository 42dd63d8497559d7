package seeds

import (
	"slices"
	"sync"

	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
)

// Dataset is a named collection of seed addresses.
type Dataset struct {
	Name  string
	Addrs *ipaddr.Set

	sortOnce   sync.Once
	sortedView []ipaddr.Addr
	digestOnce sync.Once
	digest     uint64
}

// NewDataset builds an empty dataset.
func NewDataset(name string) *Dataset {
	return &Dataset{Name: name, Addrs: ipaddr.NewSet()}
}

// FromAddrs builds a dataset from a slice (deduplicating). The set is
// sized for len(addrs) addresses up front, which is exact for a list
// without duplicates.
func FromAddrs(name string, addrs []ipaddr.Addr) *Dataset {
	return FromSet(name, ipaddr.NewSet(addrs...))
}

// FromSet wraps an existing set (not copied).
func FromSet(name string, s *ipaddr.Set) *Dataset {
	return &Dataset{Name: name, Addrs: s}
}

// Len returns the number of unique addresses.
func (d *Dataset) Len() int { return d.Addrs.Len() }

// Slice returns a copy of the addresses in insertion order.
func (d *Dataset) Slice() []ipaddr.Addr { return d.Addrs.Slice() }

// SortedSlice returns the addresses in canonical ascending order — the
// order Generator.Init expects — computed once and cached, so a treatment
// used across many grid cells sorts once instead of per run. The returned
// slice is shared: callers must treat it as read-only, and the dataset
// must not be mutated after the first call.
func (d *Dataset) SortedSlice() []ipaddr.Addr {
	d.sortOnce.Do(func() {
		s := d.Addrs.Slice()
		slices.SortFunc(s, ipaddr.Addr.Compare)
		d.sortedView = s
	})
	return d.sortedView
}

// Digest is ipaddr.Digest of SortedSlice, computed once and cached
// beside it: a content key under which datasets holding the same
// addresses are equal, whatever their names or insertion orders.
func (d *Dataset) Digest() uint64 {
	d.digestOnce.Do(func() { d.digest = ipaddr.Digest(d.SortedSlice()) })
	return d.digest
}

// Intersect returns a new dataset with the common addresses.
func (d *Dataset) Intersect(o *Dataset, name string) *Dataset {
	return &Dataset{Name: name, Addrs: d.Addrs.Intersect(o.Addrs)}
}

// Restrict returns a new dataset with only the addresses also in allowed.
func (d *Dataset) Restrict(name string, allowed *ipaddr.Set) *Dataset {
	return &Dataset{Name: name, Addrs: d.Addrs.Intersect(allowed)}
}

// ASCount returns the number of distinct ASes covered.
func (d *Dataset) ASCount(db *asdb.DB) int {
	return len(db.ASSet(d.Addrs.Slice()))
}

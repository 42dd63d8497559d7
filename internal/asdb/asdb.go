// Package asdb implements the autonomous-system registry used to compute
// the paper's network-diversity metric ("active ASes"). It maps IPv6
// prefixes to AS numbers with longest-prefix matching and records an
// organization classification per AS, standing in for the PeeringDB /
// manual labels the paper uses in Table 6.
package asdb

import (
	"fmt"
	"slices"
	"sort"

	"seedscan/internal/ipaddr"
)

// OrgType classifies the organization behind an AS, mirroring the manual
// classification of Table 6.
type OrgType uint8

const (
	OrgISP OrgType = iota
	OrgMobile
	OrgCloudCDN
	OrgHosting
	OrgEducation
	OrgGovernment
	OrgEnterprise
	OrgSatellite
	OrgOther

	orgCount
)

// String returns a human-readable label.
func (o OrgType) String() string {
	switch o {
	case OrgISP:
		return "ISP"
	case OrgMobile:
		return "Mobile"
	case OrgCloudCDN:
		return "Cloud/CDN"
	case OrgHosting:
		return "Hosting"
	case OrgEducation:
		return "Education"
	case OrgGovernment:
		return "Government"
	case OrgEnterprise:
		return "Enterprise"
	case OrgSatellite:
		return "Satellite"
	case OrgOther:
		return "Other"
	}
	return fmt.Sprintf("OrgType(%d)", uint8(o))
}

// AS describes a single autonomous system: its number, name, organization
// type, and announced prefixes.
type AS struct {
	Number   int
	Name     string
	Type     OrgType
	Prefixes []ipaddr.Prefix
}

// DB is the registry of ASes with prefix-based lookup. Construct with New;
// a DB is immutable and safe for concurrent reads.
type DB struct {
	// table maps each announced prefix to its AS's position in ases.
	table *ipaddr.LPMTable
	ases  []*AS // sorted by Number
}

// New builds a registry routing every listed AS's prefixes to it. Records
// sharing an AS number merge into one, their prefix lists concatenated.
// When two records announce the same prefix, the later one owns it.
func New(ases ...*AS) *DB {
	db := &DB{}
	byNum := make(map[int]*AS, len(ases))
	for _, as := range ases {
		if existing, ok := byNum[as.Number]; ok {
			existing.Prefixes = append(existing.Prefixes, as.Prefixes...)
			continue
		}
		cp := *as
		cp.Prefixes = slices.Clone(as.Prefixes)
		byNum[as.Number] = &cp
		db.ases = append(db.ases, &cp)
	}
	sort.Slice(db.ases, func(i, j int) bool { return db.ases[i].Number < db.ases[j].Number })
	var prefixes []ipaddr.Prefix
	var values []uint32
	for _, as := range ases {
		i, _ := db.index(as.Number)
		for _, p := range as.Prefixes {
			prefixes = append(prefixes, p)
			values = append(values, uint32(i))
		}
	}
	db.table = ipaddr.BuildLPM(prefixes, values, 0)
	return db
}

// Lookup returns the AS number originating address a, using longest-prefix
// matching, or (0, false) when a is unrouted.
func (db *DB) Lookup(a ipaddr.Addr) (int, bool) {
	as, ok := db.asOf(a)
	if !ok {
		return 0, false
	}
	return as.Number, true
}

// asOf returns the full AS record originating a.
func (db *DB) asOf(a ipaddr.Addr) (*AS, bool) {
	i, ok := db.table.Lookup(a)
	if !ok {
		return nil, false
	}
	return db.ases[i], true
}

// Get returns the AS with the given number.
func (db *DB) Get(asn int) (*AS, bool) {
	i, ok := db.index(asn)
	if !ok {
		return nil, false
	}
	return db.ases[i], true
}

// index returns asn's position in ases.
func (db *DB) index(asn int) (int, bool) {
	i := sort.Search(len(db.ases), func(i int) bool { return db.ases[i].Number >= asn })
	return i, i < len(db.ases) && db.ases[i].Number == asn
}

// Len returns the number of registered ASes.
func (db *DB) Len() int { return len(db.ases) }

// All returns every registered AS sorted by AS number.
func (db *DB) All() []*AS { return slices.Clone(db.ases) }

// ASSet returns the set of distinct AS numbers originating the addresses.
func (db *DB) ASSet(addrs []ipaddr.Addr) map[int]struct{} {
	seen := make(map[int]struct{})
	for _, a := range addrs {
		if asn, ok := db.Lookup(a); ok {
			seen[asn] = struct{}{}
		}
	}
	return seen
}

// TopASes tallies addrs by AS and returns the counts sorted descending,
// breaking ties by AS number. Table 6's "top 3 ASes per dataset" uses this.
func (db *DB) TopASes(addrs []ipaddr.Addr) []ASCount {
	counts := make(map[*AS]int)
	routed := 0
	for _, a := range addrs {
		if as, ok := db.asOf(a); ok {
			counts[as]++
			routed++
		}
	}
	out := make([]ASCount, 0, len(counts))
	for as, n := range counts {
		share := 0.0
		if routed > 0 {
			share = float64(n) / float64(routed)
		}
		out = append(out, ASCount{AS: as, count: n, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].AS.Number < out[j].AS.Number
	})
	return out
}

// ASCount is one row of a TopASes tally.
type ASCount struct {
	AS    *AS
	count int
	Share float64 // fraction of routed addresses in this AS
}

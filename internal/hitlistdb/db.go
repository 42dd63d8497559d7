package hitlistdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"sort"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// DB is one opened snapshot database. It is immutable: every method is
// safe for unlimited concurrent use with no locking, which is what lets
// the serve daemon answer queries over one shared *DB per generation.
type DB struct {
	data []byte
	hdr  headerInfo

	addrOff   int
	prefixOff int
	indexOff  int

	// index is the decoded fixed-stride index: the first address of every
	// stride-sized record block. ~n/stride entries, decoded once at Open.
	index []ipaddr.Addr

	// aliasIdx is the containment-query view of the alias list: sorted
	// prefixes with any prefix already covered by a coarser one dropped,
	// so the prefixes are pairwise disjoint and a point query needs only a
	// predecessor lookup. The on-disk list is preserved verbatim for
	// AliasedPrefixes and Snapshot.
	aliasIdx []ipaddr.Prefix
}

// Record is one point-lookup answer.
type Record struct {
	// Addr is the looked-up address.
	Addr ipaddr.Addr
	// Responsive reports membership in the published responsive list.
	Responsive bool
	// flags holds the per-protocol bits.
	flags byte
}

// on reports whether the address was responsive on protocol p.
func (r Record) on(p proto.Protocol) bool { return r.flags&(1<<uint(p)) != 0 }

// Protocols lists the protocols the address answered on, in canonical
// order.
func (r Record) Protocols() []proto.Protocol {
	var out []proto.Protocol
	for _, p := range proto.All {
		if r.on(p) {
			out = append(out, p)
		}
	}
	return out
}

// Open reads and validates the snapshot database at path.
func Open(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hitlistdb: open: %w", err)
	}
	db, err := FromBytes(data)
	if err != nil {
		return nil, fmt.Errorf("hitlistdb: open %s: %w", path, err)
	}
	return db, nil
}

// FromBytes builds a DB over a complete snapshot image. The slice is
// retained and must not be modified afterwards.
func FromBytes(data []byte) (*DB, error) {
	hdr, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	nIndex := 0
	if hdr.addrCount > 0 {
		nIndex = (hdr.addrCount + hdr.stride - 1) / hdr.stride
	}
	want := headerSize + recordSize*hdr.addrCount + prefixSize*hdr.prefixCount + 16*nIndex + crcSize
	if len(data) != want {
		return nil, fmt.Errorf("hitlistdb: file is %d bytes, want %d for %d records + %d prefixes",
			len(data), want, hdr.addrCount, hdr.prefixCount)
	}
	body := data[:len(data)-crcSize]
	wantCRC := binary.BigEndian.Uint64(data[len(data)-crcSize:])
	if got := crc64.Checksum(body, crcTable); got != wantCRC {
		return nil, fmt.Errorf("hitlistdb: checksum mismatch (file corrupt or torn)")
	}

	db := &DB{
		data:      data,
		hdr:       hdr,
		addrOff:   headerSize,
		prefixOff: headerSize + recordSize*hdr.addrCount,
	}
	db.indexOff = db.prefixOff + prefixSize*hdr.prefixCount

	db.index = make([]ipaddr.Addr, nIndex)
	for i := range db.index {
		off := db.indexOff + 16*i
		db.index[i] = ipaddr.AddrFrom16([16]byte(data[off : off+16]))
	}

	// Validate sort order and the index before building the alias
	// containment view: out-of-order records or an index entry that is not
	// its block's first address would silently break binary search.
	prev := ipaddr.Addr{}
	for i := 0; i < hdr.addrCount; i++ {
		a := db.recordAddr(i)
		if i > 0 && !prev.Less(a) {
			return nil, fmt.Errorf("hitlistdb: address records not strictly sorted at %d", i)
		}
		if i%hdr.stride == 0 && db.index[i/hdr.stride] != a {
			return nil, fmt.Errorf("hitlistdb: index entry %d is not record %d", i/hdr.stride, i)
		}
		prev = a
	}
	db.aliasIdx = make([]ipaddr.Prefix, 0, hdr.prefixCount)
	for i := 0; i < hdr.prefixCount; i++ {
		p, err := db.prefixAt(i)
		if err != nil {
			return nil, err
		}
		if n := len(db.aliasIdx); n > 0 {
			last := db.aliasIdx[n-1]
			if last.ContainsPrefix(p) {
				continue // covered by a coarser published prefix
			}
			if !last.Addr().Less(p.Addr()) && last.Addr() != p.Addr() {
				return nil, fmt.Errorf("hitlistdb: alias prefixes not sorted at %d", i)
			}
		}
		db.aliasIdx = append(db.aliasIdx, p)
	}
	return db, nil
}

// recordAddr returns the address of record i.
func (db *DB) recordAddr(i int) ipaddr.Addr {
	off := db.addrOff + recordSize*i
	return ipaddr.AddrFrom16([16]byte(db.data[off : off+16]))
}

// recordFlags returns the flag byte of record i.
func (db *DB) recordFlags(i int) byte {
	return db.data[db.addrOff+recordSize*i+16]
}

// prefixAt decodes alias-prefix record i.
func (db *DB) prefixAt(i int) (ipaddr.Prefix, error) {
	off := db.prefixOff + prefixSize*i
	bits := int(db.data[off+16])
	if bits > 128 {
		return ipaddr.Prefix{}, fmt.Errorf("hitlistdb: alias prefix %d has length %d", i, bits)
	}
	return ipaddr.PrefixFrom(ipaddr.AddrFrom16([16]byte(db.data[off:off+16])), bits), nil
}

// Generation returns the snapshot's generation number.
func (db *DB) Generation() uint64 { return db.hdr.generation }

// BuiltAt returns the snapshot's build time.
func (db *DB) BuiltAt() time.Time { return db.hdr.builtAt }

// Epoch returns the world epoch the build scanned at (zero for batch
// builds and files written before the epoch header field existed).
func (db *DB) Epoch() int { return db.hdr.epoch }

// AddrCount returns the number of address records.
func (db *DB) AddrCount() int { return db.hdr.addrCount }

// PrefixCount returns the number of published alias prefixes.
func (db *DB) PrefixCount() int { return db.hdr.prefixCount }

// Bytes returns the raw snapshot image (for dataset download). Callers
// must not modify it.
func (db *DB) Bytes() []byte { return db.data }

// find returns the record index holding a, or (insertion point, false).
// It binary-searches the fixed-stride index first, then one record block.
func (db *DB) find(a ipaddr.Addr) (int, bool) {
	if db.hdr.addrCount == 0 {
		return 0, false
	}
	// Last index block whose first address is <= a.
	blk := sort.Search(len(db.index), func(i int) bool { return a.Less(db.index[i]) }) - 1
	if blk < 0 {
		return 0, false
	}
	lo := blk * db.hdr.stride
	hi := lo + db.hdr.stride
	if hi > db.hdr.addrCount {
		hi = db.hdr.addrCount
	}
	i := lo + sort.Search(hi-lo, func(i int) bool { return !db.recordAddr(lo + i).Less(a) })
	if i < db.hdr.addrCount && db.recordAddr(i) == a {
		return i, true
	}
	return i, false
}

// Lookup returns the record for a, if present.
func (db *DB) Lookup(a ipaddr.Addr) (Record, bool) {
	i, ok := db.find(a)
	if !ok {
		return Record{}, false
	}
	f := db.recordFlags(i)
	return Record{Addr: a, Responsive: f&flagResponsive != 0, flags: f &^ flagResponsive}, true
}

// AliasContaining returns the published aliased prefix covering a, if any.
func (db *DB) AliasContaining(a ipaddr.Addr) (ipaddr.Prefix, bool) {
	// The containment view is disjoint and sorted, so the only candidate
	// is the last prefix whose base is <= a.
	i := sort.Search(len(db.aliasIdx), func(i int) bool { return a.Less(db.aliasIdx[i].Addr()) }) - 1
	if i >= 0 && db.aliasIdx[i].Contains(a) {
		return db.aliasIdx[i], true
	}
	return ipaddr.Prefix{}, false
}

// WalkPrefix calls fn for every record inside p in ascending address
// order, stopping early when fn returns false. It reports how many records
// were visited.
func (db *DB) WalkPrefix(p ipaddr.Prefix, fn func(Record) bool) int {
	i, _ := db.find(p.Addr())
	last := p.Last()
	visited := 0
	for ; i < db.hdr.addrCount; i++ {
		a := db.recordAddr(i)
		if last.Less(a) {
			break
		}
		f := db.recordFlags(i)
		visited++
		if !fn(Record{Addr: a, Responsive: f&flagResponsive != 0, flags: f &^ flagResponsive}) {
			break
		}
	}
	return visited
}

// aliasedPrefixes returns the published alias list exactly as stored.
func (db *DB) aliasedPrefixes() []ipaddr.Prefix {
	out := make([]ipaddr.Prefix, 0, db.hdr.prefixCount)
	for i := 0; i < db.hdr.prefixCount; i++ {
		p, _ := db.prefixAt(i) // validated at Open
		out = append(out, p)
	}
	return out
}

// Snapshot reconstructs the hitlist build this database was written from.
// Marshal(db.Snapshot(), db.Generation()) reproduces the identical image —
// the lossless round-trip the write path is tested against.
func (db *DB) Snapshot() *hitlist.Snapshot {
	snap := &hitlist.Snapshot{
		BuiltAt:         db.hdr.builtAt,
		Epoch:           db.hdr.epoch,
		Input:           db.hdr.input,
		AliasedAddrs:    db.hdr.aliasedAddrs,
		Responsive:      ipaddr.NewSetCap(db.hdr.addrCount),
		AliasedPrefixes: db.aliasedPrefixes(),
	}
	for _, p := range proto.All {
		snap.PerProtocol[p] = ipaddr.NewSet()
	}
	for i := 0; i < db.hdr.addrCount; i++ {
		a := db.recordAddr(i)
		f := db.recordFlags(i)
		if f&flagResponsive != 0 {
			snap.Responsive.Add(a)
		}
		for _, p := range proto.All {
			if f&(1<<uint(p)) != 0 {
				snap.PerProtocol[p].Add(a)
			}
		}
	}
	return snap
}

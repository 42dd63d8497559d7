// Package hitlistdb stores hitlist snapshots in a compact, immutable
// on-disk format and serves point lookups, alias containment checks, and
// prefix walks over them — the storage layer behind `seedscan serve`.
//
// A snapshot file is a single flat byte image designed so Open is cheap
// (parse a 64-byte header, decode a small fixed-stride index) and every
// query runs by binary search directly over the raw record bytes — no
// per-record decode pass, no heap graph, and therefore no locks: a *DB is
// immutable after Open and safe to share across any number of readers.
//
// Layout (all integers big-endian):
//
//	header   64 bytes: magic "SSHL", version u16, index stride u16,
//	         generation u64, built-at unixnano i64, input u64,
//	         aliased-addrs u64, addr count u64, prefix count u64,
//	         epoch u32 (the world epoch the build scanned at; zero for
//	         batch builds and pre-epoch files)
//	records  addr count × 17 bytes: address[16] | flags u8, sorted
//	         ascending, unique. Flag bits 0..proto.Count-1 mark
//	         per-protocol responsiveness; bit 7 marks membership in the
//	         published responsive set.
//	aliases  prefix count × 17 bytes: base address[16] | bits u8, sorted
//	         by (base, bits), unique — the aliased-prefix artifact
//	         verbatim, so a snapshot round-trips losslessly.
//	index    ceil(count/stride) × 16 bytes: the first address of every
//	         stride-sized record block. Lookups binary-search the index,
//	         then only one block of records — the only part of the file a
//	         point lookup must touch besides its final record.
//	crc      u64: CRC-64/ECMA of everything above, so a torn or corrupt
//	         file is rejected at Open instead of serving wrong answers.
//
// Builds are published through a Store: generation-numbered files plus an
// atomically-renamed manifest, so a writer can publish a new build while
// readers keep serving the old one (see store.go).
package hitlistdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// Format constants. Bump formatVersion on any incompatible layout change;
// Open rejects mismatched versions.
const (
	formatVersion = 1
	headerSize    = 64
	recordSize    = 17 // 16 address bytes + 1 flag byte
	prefixSize    = 17 // 16 base-address bytes + 1 length byte
	crcSize       = 8

	// defaultIndexStride is the number of records per index block: small
	// enough that a point lookup's second binary search touches one cache
	// window of records, large enough that the index stays ~1.5% of the
	// record section.
	defaultIndexStride = 64

	// flagResponsive marks membership in the published responsive set
	// (bits 0..proto.Count-1 are the per-protocol bits).
	flagResponsive = 0x80
)

var formatMagic = [4]byte{'S', 'S', 'H', 'L'}

// crcTable is the ECMA polynomial table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Marshal encodes one snapshot as a generation-numbered database image.
// The record set is the union of the snapshot's responsive and
// per-protocol sets; the alias-prefix list is written verbatim (sorted,
// deduplicated), so Unmarshal→Snapshot is lossless.
func Marshal(snap *hitlist.Snapshot, generation uint64) []byte {
	// Union the sets: an address can in principle appear in a per-protocol
	// set only, and the flags byte preserves exactly which sets it was in.
	union := ipaddr.NewSetCap(snap.Responsive.Len())
	union.AddSet(snap.Responsive)
	for _, p := range proto.All {
		if snap.PerProtocol[p] != nil {
			union.AddSet(snap.PerProtocol[p])
		}
	}
	addrs := union.Sorted()

	prefixes := dedupPrefixes(snap.AliasedPrefixes)

	nIndex := (len(addrs) + defaultIndexStride - 1) / defaultIndexStride
	size := headerSize + recordSize*len(addrs) + prefixSize*len(prefixes) + 16*nIndex + crcSize
	b := make([]byte, 0, size)

	// Header.
	b = append(b, formatMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, formatVersion)
	b = binary.BigEndian.AppendUint16(b, defaultIndexStride)
	b = binary.BigEndian.AppendUint64(b, generation)
	b = binary.BigEndian.AppendUint64(b, uint64(snap.BuiltAt.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(snap.Input))
	b = binary.BigEndian.AppendUint64(b, uint64(snap.AliasedAddrs))
	b = binary.BigEndian.AppendUint64(b, uint64(len(addrs)))
	b = binary.BigEndian.AppendUint64(b, uint64(len(prefixes)))
	b = binary.BigEndian.AppendUint32(b, uint32(snap.Epoch))
	for len(b) < headerSize {
		b = append(b, 0)
	}

	// Address records.
	for _, a := range addrs {
		a16 := a.As16()
		b = append(b, a16[:]...)
		var flags byte
		if snap.Responsive.Contains(a) {
			flags |= flagResponsive
		}
		for _, p := range proto.All {
			if snap.PerProtocol[p].Contains(a) {
				flags |= 1 << uint(p)
			}
		}
		b = append(b, flags)
	}

	// Alias-prefix records.
	for _, p := range prefixes {
		a16 := p.Addr().As16()
		b = append(b, a16[:]...)
		b = append(b, byte(p.Bits()))
	}

	// Fixed-stride index.
	for i := 0; i < len(addrs); i += defaultIndexStride {
		a16 := addrs[i].As16()
		b = append(b, a16[:]...)
	}

	return binary.BigEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
}

// dedupPrefixes returns the canonical published prefix list: sorted by
// (base, bits) with exact duplicates removed. Overlapping prefixes are
// preserved — normalization for containment queries happens at Open, so
// the file stays a lossless image of the snapshot.
func dedupPrefixes(prefixes []ipaddr.Prefix) []ipaddr.Prefix {
	out := append([]ipaddr.Prefix(nil), prefixes...)
	hitlist.SortPrefixes(out)
	j := 0
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			out[j] = p
			j++
		}
	}
	return out[:j]
}

// writeFile atomically writes the marshaled snapshot to path: the image
// goes to a temporary file in the same directory, is fsynced, and then
// renamed over path, so a crash never leaves a half-written database where
// a reader could open it.
func writeFile(path string, snap *hitlist.Snapshot, generation uint64) error {
	data := Marshal(snap, generation)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hitlistdb-*")
	if err != nil {
		return fmt.Errorf("hitlistdb: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("hitlistdb: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("hitlistdb: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("hitlistdb: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("hitlistdb: publish %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Filesystems that refuse directory fsync (some CI overlays) are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// headerInfo is the decoded fixed header.
type headerInfo struct {
	stride       int
	generation   uint64
	builtAt      time.Time
	input        int
	aliasedAddrs int
	addrCount    int
	prefixCount  int
	epoch        int
}

// parseHeader validates the magic/version and decodes the header fields.
func parseHeader(b []byte) (headerInfo, error) {
	if len(b) < headerSize+crcSize {
		return headerInfo{}, fmt.Errorf("hitlistdb: file too short (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != formatMagic {
		return headerInfo{}, fmt.Errorf("hitlistdb: bad magic %q", b[:4])
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != formatVersion {
		return headerInfo{}, fmt.Errorf("hitlistdb: format version %d, want %d", v, formatVersion)
	}
	h := headerInfo{
		stride:       int(binary.BigEndian.Uint16(b[6:8])),
		generation:   binary.BigEndian.Uint64(b[8:16]),
		builtAt:      time.Unix(0, int64(binary.BigEndian.Uint64(b[16:24]))),
		input:        int(binary.BigEndian.Uint64(b[24:32])),
		aliasedAddrs: int(binary.BigEndian.Uint64(b[32:40])),
		addrCount:    int(binary.BigEndian.Uint64(b[40:48])),
		prefixCount:  int(binary.BigEndian.Uint64(b[48:56])),
		epoch:        int(binary.BigEndian.Uint32(b[56:60])),
	}
	if h.stride <= 0 {
		return headerInfo{}, fmt.Errorf("hitlistdb: invalid index stride %d", h.stride)
	}
	if h.addrCount < 0 || h.prefixCount < 0 {
		return headerInfo{}, fmt.Errorf("hitlistdb: negative record counts")
	}
	// Bound the counts by the file before anything multiplies them: a
	// count near 2^63 would wrap the size check and pass it.
	if h.addrCount > len(b)/recordSize || h.prefixCount > len(b)/prefixSize {
		return headerInfo{}, fmt.Errorf("hitlistdb: header counts %d records + %d prefixes exceed a %d-byte file",
			h.addrCount, h.prefixCount, len(b))
	}
	return h, nil
}

package hitlistdb

import (
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// fuzzSnapshot is a small synthetic build: n addresses spread over a few
// /64s, each with its own mix of flag bits, and two alias prefixes.
func fuzzSnapshot(n int) *hitlist.Snapshot {
	snap := &hitlist.Snapshot{
		BuiltAt:    time.Unix(0, 12345),
		Input:      2 * n,
		Responsive: ipaddr.NewSet(),
		AliasedPrefixes: []ipaddr.Prefix{
			ipaddr.MustParsePrefix("2001:db8:aaaa::/96"),
			ipaddr.MustParsePrefix("2001:db8:bbbb::/64"),
		},
	}
	for _, p := range proto.All {
		snap.PerProtocol[p] = ipaddr.NewSet()
	}
	for i := 0; i < n; i++ {
		a := ipaddr.AddrFrom64s(0x20010db8_00000000|uint64(i%5), uint64(i)*0x10001+1)
		if i%3 != 0 {
			snap.Responsive.Add(a)
		}
		p := proto.All[i%len(proto.All)]
		snap.PerProtocol[p].Add(a)
	}
	return snap
}

// withCRC returns a copy of data whose trailer is the checksum of the
// rest, so a mutation reaches the structural checks behind it.
func withCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < crcSize {
		return out
	}
	body := out[:len(out)-crcSize]
	binary.BigEndian.PutUint64(out[len(body):], crc64.Checksum(body, crcTable))
	return out
}

// lyingCountsImage is an 88-byte image with no records whose prefix count,
// 0x0F0F0F0F0F0F0F10, wraps 17·count to 16: a size check computed without
// bounding the counts first passes, and decoding then sizes a slice by
// the count.
func lyingCountsImage() []byte {
	b := make([]byte, headerSize, 88)
	copy(b, formatMagic[:])
	binary.BigEndian.PutUint16(b[4:6], formatVersion)
	binary.BigEndian.PutUint16(b[6:8], defaultIndexStride)
	binary.BigEndian.PutUint64(b[48:56], 0x0F0F0F0F0F0F0F10)
	b = append(b, make([]byte, 16+crcSize)...)
	return withCRC(b)
}

// indexOffset is where the index section of a Marshal'd image starts.
func indexOffset(data []byte) int {
	n := int(binary.BigEndian.Uint64(data[40:48]))
	p := int(binary.BigEndian.Uint64(data[48:56]))
	return headerSize + recordSize*n + prefixSize*p
}

// wrongIndexImage is a Marshal'd 200-record image whose second index entry
// names record 70 instead of record 64, with the checksum recomputed.
// Accepted, it would answer "not found" for records 64..69.
func wrongIndexImage() []byte {
	data := Marshal(fuzzSnapshot(200), 1)
	rec70 := headerSize + recordSize*70
	copy(data[indexOffset(data)+16:], data[rec70:rec70+16])
	return withCRC(data)
}

// restride re-encodes a Marshal'd image with another index stride.
func restride(data []byte, stride int) []byte {
	n := int(binary.BigEndian.Uint64(data[40:48]))
	out := append([]byte(nil), data[:indexOffset(data)]...)
	binary.BigEndian.PutUint16(out[6:8], uint16(stride))
	for i := 0; i < n; i += stride {
		off := headerSize + recordSize*i
		out = append(out, data[off:off+16]...)
	}
	return withCRC(append(out, make([]byte, crcSize)...))
}

// publishThenReplace publishes a valid generation into a fresh store
// directory, then overwrites the generation's file with image, and returns
// the directory and the file.
func publishThenReplace(t *testing.T, image []byte) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(fuzzSnapshot(10)); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, genFile(st.Generation()))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, path
}

// TestOpenRejectsLyingCounts: header counts large enough to wrap the size
// check must be refused by Open and by a store opening that file, not
// panic them.
func TestOpenRejectsLyingCounts(t *testing.T) {
	dir, path := publishThenReplace(t, lyingCountsImage())
	if _, err := Open(path); err == nil {
		t.Fatal("image whose prefix count wraps the size check was accepted")
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("store opened a generation whose prefix count wraps the size check")
	}
}

// TestOpenRejectsWrongIndex: an index entry that is not its block's first
// record must be refused, CRC or not, or lookups in that block miss.
func TestOpenRejectsWrongIndex(t *testing.T) {
	dir, path := publishThenReplace(t, wrongIndexImage())
	if _, err := Open(path); err == nil {
		t.Fatal("image whose index disagrees with its records was accepted")
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("store opened a generation whose index disagrees with its records")
	}
}

// FuzzFromBytes hands FromBytes a snapshot image it did not write; with
// fixCRC the trailer is recomputed first, so mutations get past the
// checksum to the structural checks. FromBytes must not panic, and an
// image it accepts must answer for every record it holds: Lookup finds
// each with its flags, and a walk of ::/0 visits exactly AddrCount
// records in ascending order.
func FuzzFromBytes(f *testing.F) {
	f.Add(Marshal(fuzzSnapshot(40), 1), false)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC {
			data = withCRC(data)
		}
		db, err := FromBytes(data)
		if err != nil {
			return
		}
		n := db.AddrCount()
		for i := 0; i < n; i++ {
			a, flags := db.recordAddr(i), db.recordFlags(i)
			rec, ok := db.Lookup(a)
			if !ok {
				t.Fatalf("record %d (%v) not found", i, a)
			}
			if rec.Responsive != (flags&flagResponsive != 0) || rec.flags != flags&^flagResponsive {
				t.Fatalf("record %d (%v): flags %#x, lookup answered %v/%#x", i, a, flags, rec.Responsive, rec.flags)
			}
		}
		var walked []ipaddr.Addr
		visited := db.WalkPrefix(ipaddr.MustParsePrefix("::/0"), func(r Record) bool {
			if k := len(walked); k > 0 && !walked[k-1].Less(r.Addr) {
				t.Fatalf("walk visited %v after %v", r.Addr, walked[k-1])
			}
			walked = append(walked, r.Addr)
			return true
		})
		if visited != n {
			t.Fatalf("walk of ::/0 visited %d of %d records", visited, n)
		}
		if got := len(db.AliasedPrefixes()); got != db.PrefixCount() {
			t.Fatalf("%d alias prefixes decoded, header says %d", got, db.PrefixCount())
		}
	})
}

// FuzzManifest hands parseManifest a manifest another process wrote — a
// watched store reads whatever sits in the directory. It must not panic,
// and a manifest it accepts has the current schema and names a plain file
// inside the store directory. The seed corpus is under testdata/fuzz/.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"schema":"seedscan-hitlistdb/v1","generation":3,"file":"gen-00000003.hldb","epoch":2,"addrs":10}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.Schema != manifestSchema {
			t.Fatalf("accepted schema %q", m.Schema)
		}
		dir := filepath.Join("var", "store")
		if p := filepath.Join(dir, m.File); filepath.Dir(p) != dir || filepath.Base(p) != m.File {
			t.Fatalf("accepted file %q resolves to %s, not a plain file in %s", m.File, p, dir)
		}
	})
}

package hitlistdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/world"
)

// buildSnapshot runs the real hitlist pipeline over a small world — the
// same artifact `seedscan build-db` publishes.
func buildSnapshot(t testing.TB) *hitlist.Snapshot {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: 7, Scale: 0.2})
	w.SetEpoch(world.ScanEpoch)
	sc := scanner.New(w.Link(), scanner.WithSecret(3))
	svc, err := hitlist.New(hitlist.WithProber(sc), hitlist.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Build(srcs[seeds.SourceHitlist], srcs[seeds.SourceAddrMiner], srcs[seeds.SourceScamper])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Responsive.Len() == 0 || len(snap.AliasedPrefixes) == 0 {
		t.Fatal("test snapshot is degenerate")
	}
	return snap
}

func openSnapshot(t testing.TB, snap *hitlist.Snapshot, gen uint64) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.hldb")
	if err := writeFile(path, snap, gen); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRoundTrip pins losslessness: write → open → Snapshot must reproduce
// the build exactly, including every per-protocol set, and re-marshaling
// the reconstruction must be byte-identical.
func TestRoundTrip(t *testing.T) {
	snap := buildSnapshot(t)
	snap.Epoch = 5 // daemon-style epoch stamp must survive the round trip
	db := openSnapshot(t, snap, 7)

	if db.Generation() != 7 {
		t.Fatalf("generation = %d", db.Generation())
	}
	if db.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", db.Epoch())
	}
	if db.inputCount() != snap.Input || db.aliasedAddrCount() != snap.AliasedAddrs {
		t.Fatalf("counts diverge: %d/%d vs %d/%d",
			db.inputCount(), db.aliasedAddrCount(), snap.Input, snap.AliasedAddrs)
	}
	if got := db.BuiltAt(); !got.Equal(snap.BuiltAt.Truncate(time.Nanosecond)) {
		t.Fatalf("BuiltAt = %v, want %v", got, snap.BuiltAt)
	}

	back := db.Snapshot()
	if back.Input != snap.Input || back.AliasedAddrs != snap.AliasedAddrs || back.Epoch != snap.Epoch {
		t.Fatal("header fields lost")
	}
	if back.Responsive.Len() != snap.Responsive.Len() ||
		back.Responsive.Diff(snap.Responsive).Len() != 0 {
		t.Fatal("responsive set lost in round trip")
	}
	for _, p := range proto.All {
		if back.PerProtocol[p].Len() != snap.PerProtocol[p].Len() ||
			back.PerProtocol[p].Diff(snap.PerProtocol[p]).Len() != 0 {
			t.Fatalf("%v set lost in round trip", p)
		}
	}
	if len(back.AliasedPrefixes) != len(snap.AliasedPrefixes) {
		t.Fatalf("prefix list %d vs %d", len(back.AliasedPrefixes), len(snap.AliasedPrefixes))
	}
	for i := range back.AliasedPrefixes {
		if back.AliasedPrefixes[i] != snap.AliasedPrefixes[i] {
			t.Fatalf("prefix %d: %v vs %v", i, back.AliasedPrefixes[i], snap.AliasedPrefixes[i])
		}
	}
	if !bytes.Equal(Marshal(back, 7), db.Bytes()) {
		t.Fatal("re-marshaled reconstruction is not byte-identical")
	}
}

func TestLookup(t *testing.T) {
	snap := buildSnapshot(t)
	db := openSnapshot(t, snap, 1)

	// Every responsive address must be found with the right protocol bits.
	checked := 0
	snap.Responsive.Each(func(a ipaddr.Addr) {
		if checked >= 500 {
			return
		}
		checked++
		rec, ok := db.Lookup(a)
		if !ok || !rec.Responsive {
			t.Fatalf("responsive %v not found", a)
		}
		for _, p := range proto.All {
			if rec.on(p) != snap.PerProtocol[p].Contains(a) {
				t.Fatalf("%v bit for %v wrong", p, a)
			}
		}
	})
	// Absent addresses miss.
	if _, ok := db.Lookup(ipaddr.MustParse("2001:db8:ffff:ffff::1234")); ok {
		t.Fatal("absent address found")
	}
	// Protocols() agrees with On().
	a := snap.Responsive.Sorted()[0]
	rec, _ := db.Lookup(a)
	want := 0
	for _, p := range proto.All {
		if rec.on(p) {
			want++
		}
	}
	if len(rec.Protocols()) != want {
		t.Fatalf("Protocols() = %v", rec.Protocols())
	}
}

func TestAliasContaining(t *testing.T) {
	snap := buildSnapshot(t)
	db := openSnapshot(t, snap, 1)

	for _, p := range snap.AliasedPrefixes[:min(20, len(snap.AliasedPrefixes))] {
		inside := p.Addr().AddLo(99)
		got, ok := db.AliasContaining(inside)
		if !ok {
			t.Fatalf("no alias covering %v (expected %v)", inside, p)
		}
		if !got.Contains(inside) {
			t.Fatalf("returned prefix %v does not contain %v", got, inside)
		}
	}
	if _, ok := db.AliasContaining(ipaddr.MustParse("fe80::1")); ok {
		t.Fatal("unaliased address matched")
	}
}

// TestAliasContainingCoarse pins the containment view against overlapping
// published prefixes: a coarse known-list prefix plus finer /96s inside it
// must all resolve, and the stored list must stay verbatim.
func TestAliasContainingCoarse(t *testing.T) {
	coarse := ipaddr.MustParsePrefix("2001:db8:aaaa::/64")
	fine1 := ipaddr.MustParsePrefix("2001:db8:aaaa::/96")
	fine2 := ipaddr.MustParsePrefix("2001:db8:aaaa:0:0:5::/96")
	other := ipaddr.MustParsePrefix("2001:db8:bbbb::/96")
	snap := &hitlist.Snapshot{
		BuiltAt:         time.Unix(0, 12345),
		Responsive:      ipaddr.NewSet(),
		AliasedPrefixes: []ipaddr.Prefix{coarse, fine1, fine2, other},
	}
	for _, p := range proto.All {
		snap.PerProtocol[p] = ipaddr.NewSet()
	}
	db := openSnapshot(t, snap, 1)

	if got := db.aliasedPrefixes(); len(got) != 4 {
		t.Fatalf("stored prefix list = %v, want all 4 verbatim", got)
	}
	for _, a := range []ipaddr.Addr{
		fine1.Addr().AddLo(1), fine2.Addr().AddLo(1),
		coarse.Addr().AddLo(1 << 40), other.Addr().AddLo(3),
	} {
		got, ok := db.AliasContaining(a)
		if !ok || !got.Contains(a) {
			t.Fatalf("AliasContaining(%v) = %v, %v", a, got, ok)
		}
	}
	if _, ok := db.AliasContaining(ipaddr.MustParse("2001:db8:cccc::1")); ok {
		t.Fatal("uncovered address matched")
	}
}

func TestWalkPrefix(t *testing.T) {
	snap := buildSnapshot(t)
	db := openSnapshot(t, snap, 1)

	// Walk the /32 around the first responsive address and cross-check
	// against a brute-force filter of the snapshot.
	first := snap.Responsive.Sorted()[0]
	p := ipaddr.PrefixFrom(first, 32)
	var walked []ipaddr.Addr
	db.WalkPrefix(p, func(r Record) bool {
		walked = append(walked, r.Addr)
		return true
	})
	want := 0
	for _, a := range db.Snapshot().Responsive.Sorted() {
		if p.Contains(a) {
			want++
		}
	}
	if len(walked) != want {
		t.Fatalf("walk visited %d, want %d", len(walked), want)
	}
	for i := 1; i < len(walked); i++ {
		if !walked[i-1].Less(walked[i]) {
			t.Fatal("walk out of order")
		}
	}
	// Early stop.
	n := 0
	db.WalkPrefix(p, func(Record) bool { n++; return n < 3 })
	if n != 3 && want >= 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestEmptySnapshot(t *testing.T) {
	snap := &hitlist.Snapshot{BuiltAt: time.Unix(0, 1), Responsive: ipaddr.NewSet()}
	db := openSnapshot(t, snap, 1)
	if db.AddrCount() != 0 || db.PrefixCount() != 0 {
		t.Fatal("empty snapshot has records")
	}
	if _, ok := db.Lookup(ipaddr.MustParse("::1")); ok {
		t.Fatal("lookup hit in empty db")
	}
	if _, ok := db.AliasContaining(ipaddr.MustParse("::1")); ok {
		t.Fatal("alias hit in empty db")
	}
	if db.WalkPrefix(ipaddr.MustParsePrefix("::/0"), func(Record) bool { return true }) != 0 {
		t.Fatal("walk visited records in empty db")
	}
	back := db.Snapshot()
	if back.Summary() == "" || back.ResponsiveFraction() != 0 {
		t.Fatal("empty reconstruction unusable")
	}
}

// TestCorruptionRejected flips bytes across the image and asserts Open
// refuses every damaged variant instead of serving wrong answers.
func TestCorruptionRejected(t *testing.T) {
	snap := buildSnapshot(t)
	data := Marshal(snap, 3)

	if _, err := FromBytes(data); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, headerSize + 3, len(data) - 4, len(data) / 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if _, err := FromBytes(bad); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
	// Truncation (a torn write) must be rejected too.
	for _, cut := range []int{1, crcSize, crcSize + 1, len(data) / 2} {
		if _, err := FromBytes(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	if _, err := FromBytes(nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.hldb")); err == nil {
		t.Fatal("missing file opened")
	}
}

// TestWriteFileAtomic asserts a failed writer leaves no partial target
// file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.hldb")
	snap := buildSnapshot(t)
	if err := writeFile(path, snap, 1); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.hldb" {
		t.Fatalf("directory holds %v, want only snap.hldb", entries)
	}
}

// inputCount returns the build's unique-input count.
func (db *DB) inputCount() int { return db.hdr.input }

// aliasedAddrCount returns how many input addresses the build discarded as
// aliased.
func (db *DB) aliasedAddrCount() int { return db.hdr.aliasedAddrs }

package asdb

import (
	"testing"

	"seedscan/internal/ipaddr"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	return New(testASes()...)
}

func testASes() []*AS {
	return []*AS{
		{Number: 100, Name: "ExampleNet", Type: OrgISP,
			Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8::/32")}},
		{Number: 200, Name: "CDNCo", Type: OrgCloudCDN,
			Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2600:9000::/28")}},
		// More-specific announced by a different AS (customer cone).
		{Number: 300, Name: "SubHost", Type: OrgHosting,
			Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8:ff::/48")}},
	}
}

func TestLookupLongestMatch(t *testing.T) {
	db := testDB(t)
	if asn, ok := db.Lookup(ipaddr.MustParse("2001:db8::1")); !ok || asn != 100 {
		t.Fatalf("lookup = %d, %v", asn, ok)
	}
	if asn, ok := db.Lookup(ipaddr.MustParse("2001:db8:ff::1")); !ok || asn != 300 {
		t.Fatalf("longest-match lookup = %d, %v", asn, ok)
	}
	if _, ok := db.Lookup(ipaddr.MustParse("fe80::1")); ok {
		t.Fatal("unrouted address matched")
	}
}

func TestASOfAndGet(t *testing.T) {
	db := testDB(t)
	as, ok := db.asOf(ipaddr.MustParse("2600:9000::1"))
	if !ok || as.Name != "CDNCo" || as.Type != OrgCloudCDN {
		t.Fatalf("ASOf = %+v, %v", as, ok)
	}
	if _, ok := db.Get(999); ok {
		t.Fatal("Get(999) should miss")
	}
}

func TestNewMergesDuplicateAS(t *testing.T) {
	db := New(append(testASes(), &AS{Number: 100, Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2a00::/24")}})...)
	if db.Len() != 3 {
		t.Fatalf("Len = %d after merge", db.Len())
	}
	if asn, ok := db.Lookup(ipaddr.MustParse("2a00::1")); !ok || asn != 100 {
		t.Fatalf("merged prefix lookup = %d, %v", asn, ok)
	}
	as, _ := db.Get(100)
	if len(as.Prefixes) != 2 {
		t.Fatalf("prefix count = %d", len(as.Prefixes))
	}
}

// TestLargeASN routes a 32-bit AS number past 2^31: table values are
// record positions, not AS numbers.
func TestLargeASN(t *testing.T) {
	const asn = 4200000000
	db := New(append(testASes(), &AS{Number: asn, Name: "Private32",
		Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2a0e::/16")}})...)
	a := ipaddr.MustParse("2a0e:1::1")
	if got, ok := db.Lookup(a); !ok || got != asn {
		t.Fatalf("Lookup = %d, %v", got, ok)
	}
	if as, ok := db.asOf(a); !ok || as.Name != "Private32" {
		t.Fatalf("ASOf = %+v, %v", as, ok)
	}
	if got, _ := db.Lookup(ipaddr.MustParse("2001:db8:ff::1")); got != 300 {
		t.Fatalf("neighbouring AS lookup = %d", got)
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	db := testDB(t)
	a := ipaddr.MustParse("2001:db8:ff::1")
	if n := testing.AllocsPerRun(1000, func() { db.Lookup(a) }); n != 0 {
		t.Fatalf("Lookup allocates %v times per call", n)
	}
}

func TestCountASes(t *testing.T) {
	db := testDB(t)
	addrs := []ipaddr.Addr{
		ipaddr.MustParse("2001:db8::1"),
		ipaddr.MustParse("2001:db8::2"),
		ipaddr.MustParse("2600:9000::1"),
		ipaddr.MustParse("fe80::1"), // unrouted
	}
	set := db.ASSet(addrs)
	if len(set) != 2 {
		t.Fatalf("%d ASes, want 2", len(set))
	}
	if _, ok := set[100]; !ok {
		t.Fatal("ASSet missing AS100")
	}
}

func TestTopASes(t *testing.T) {
	db := testDB(t)
	var addrs []ipaddr.Addr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, ipaddr.MustParse("2600:9000::1").AddLo(uint64(i)))
	}
	for i := 0; i < 3; i++ {
		addrs = append(addrs, ipaddr.MustParse("2001:db8::1").AddLo(uint64(i)))
	}
	addrs = append(addrs, ipaddr.MustParse("fe80::1")) // unrouted, ignored
	top := db.TopASes(addrs)
	if len(top) != 2 {
		t.Fatalf("TopASes len = %d", len(top))
	}
	if top[0].AS.Number != 200 || top[0].count != 6 {
		t.Fatalf("top AS = %d count %d", top[0].AS.Number, top[0].count)
	}
	if got := top[0].Share; got < 0.66 || got > 0.67 {
		t.Fatalf("share = %v", got)
	}
}

func TestAllSorted(t *testing.T) {
	db := testDB(t)
	all := db.All()
	if len(all) != 3 {
		t.Fatalf("All len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Number >= all[i].Number {
			t.Fatal("All not sorted by number")
		}
	}
}

func TestOrgTypeStrings(t *testing.T) {
	for o := OrgISP; o < orgCount; o++ {
		if o.String() == "" {
			t.Fatalf("empty string for %d", o)
		}
	}
	if OrgType(200).String() != "OrgType(200)" {
		t.Fatal("fallback string wrong")
	}
}

func TestNewLaterRecordOwnsRepeatedPrefix(t *testing.T) {
	db := New(append(testASes(), &AS{Number: 50, Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2600:9000::/28")}})...)
	if asn, _ := db.Lookup(ipaddr.MustParse("2600:9000::1")); asn != 50 {
		t.Fatalf("repeated prefix routes to AS%d, want the later AS50", asn)
	}
}

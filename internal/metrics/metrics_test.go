package metrics

import (
	"math"
	"testing"

	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
)

func testDB() *asdb.DB {
	return asdb.New(
		&asdb.AS{Number: 100, Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2001:db8::/32")}},
		&asdb.AS{Number: 200, Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2600::/16")}},
		&asdb.AS{Number: 12322, Prefixes: []ipaddr.Prefix{ipaddr.MustParsePrefix("2a01::/16")}},
	)
}

func TestMeasure(t *testing.T) {
	db := testDB()
	hits := []ipaddr.Addr{
		ipaddr.MustParse("2001:db8::1"),
		ipaddr.MustParse("2001:db8::2"),
		ipaddr.MustParse("2600::1"),
	}
	aliased := []ipaddr.Addr{ipaddr.MustParse("2600::ff")}
	o := Measure(hits, aliased, db, 0)
	if o.Hits != 3 || o.ASes != 2 || o.Aliases != 1 {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestMeasureExcludesPathologicalAS(t *testing.T) {
	db := testDB()
	hits := []ipaddr.Addr{
		ipaddr.MustParse("2001:db8::1"),
		ipaddr.MustParse("2a01::1"), // AS12322
		ipaddr.MustParse("2a01::2"),
	}
	o := Measure(hits, nil, db, 12322)
	if o.Hits != 1 || o.ASes != 1 {
		t.Fatalf("filtered outcome = %+v", o)
	}
	unfiltered := Measure(hits, nil, db, 0)
	if unfiltered.Hits != 3 || unfiltered.ASes != 2 {
		t.Fatalf("unfiltered outcome = %+v", unfiltered)
	}
	if kept := ExcludeAS(hits, db, 12322); len(kept) != 1 || kept[0] != hits[0] {
		t.Fatalf("ExcludeAS kept %v", kept)
	}
	if kept := ExcludeAS(hits, db, 0); len(kept) != len(hits) {
		t.Fatalf("ExcludeAS with no AS kept %d of %d", len(kept), len(hits))
	}
}

func TestPerformanceRatio(t *testing.T) {
	cases := []struct{ changed, original, want float64 }{
		{100, 100, 0},
		{200, 100, 1},
		{50, 100, -0.5},
		{0, 100, -1},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := PerformanceRatio(c.changed, c.original); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PR(%v,%v) = %v, want %v", c.changed, c.original, got, c.want)
		}
	}
}

func TestGreedyCoverOrdering(t *testing.T) {
	sets := map[string]map[int]struct{}{
		"big":     {1: {}, 2: {}, 3: {}, 4: {}},
		"overlap": {3: {}, 4: {}, 5: {}},
		"tiny":    {1: {}},
	}
	order := GreedyCover(sets)
	if len(order) != 3 {
		t.Fatalf("steps = %d", len(order))
	}
	if order[0].Name != "big" || order[0].New != 4 || order[0].Total != 4 {
		t.Fatalf("step0 = %+v", order[0])
	}
	if order[1].Name != "overlap" || order[1].New != 1 || order[1].Total != 5 {
		t.Fatalf("step1 = %+v", order[1])
	}
	if order[2].Name != "tiny" || order[2].New != 0 || order[2].Total != 5 {
		t.Fatalf("step2 = %+v", order[2])
	}
}

func TestGreedyCoverDeterministicTies(t *testing.T) {
	sets := map[string]map[int]struct{}{
		"b": {1: {}},
		"a": {2: {}},
	}
	for i := 0; i < 10; i++ {
		order := GreedyCover(sets)
		if order[0].Name != "a" {
			t.Fatal("tie not broken lexicographically")
		}
	}
}

func TestOverlapsMatrix(t *testing.T) {
	sets := map[string]map[int]struct{}{
		"x": {1: {}, 2: {}},
		"y": {2: {}, 3: {}},
		"z": {9: {}},
	}
	m := Overlaps([]string{"x", "y", "z"}, sets)
	if m.Frac[0][1] != 0.5 || m.Frac[1][0] != 0.5 {
		t.Fatalf("x/y overlap = %v / %v", m.Frac[0][1], m.Frac[1][0])
	}
	if m.Frac[0][0] != 1 {
		t.Fatal("diagonal must be 1")
	}
	if m.AnyOther[0] != 0.5 || m.AnyOther[2] != 0 {
		t.Fatalf("AnyOther = %v", m.AnyOther)
	}
}

func TestOverlapsEmptySet(t *testing.T) {
	sets := map[string]map[int]struct{}{"e": {}, "f": {1: {}}}
	m := Overlaps([]string{"e", "f"}, sets)
	if m.AnyOther[0] != 0 {
		t.Fatal("empty set overlap must be 0")
	}
}

func TestNamedSets(t *testing.T) {
	db := testDB()
	names := []string{"a", "b"}
	addrs := [][]ipaddr.Addr{
		{ipaddr.MustParse("2001:db8::1"), ipaddr.MustParse("2600::1")},
		{ipaddr.MustParse("2001:db8::1"), ipaddr.MustParse("2001:db8::2"), ipaddr.MustParse("2001:db8::2")},
	}
	ips, ases := NamedSets(names, addrs, db)
	if len(ips) != 2 || len(ases) != 2 {
		t.Fatalf("families: %d IP sets, %d AS sets", len(ips), len(ases))
	}
	if got := len(ips["a"]); got != 2 {
		t.Fatalf("IP set a = %d", got)
	}
	if got := len(ases["a"]); got != 2 {
		t.Fatalf("AS set a = %d", got)
	}
	if len(ips["b"]) != 2 || len(ases["b"]) != 1 {
		t.Fatalf("set b: %d IPs, %d ASes, want 2 and 1", len(ips["b"]), len(ases["b"]))
	}
}

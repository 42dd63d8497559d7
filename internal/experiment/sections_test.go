package experiment

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"seedscan/internal/proto"
)

// TestSweepCellOrder pins the three cell-list nestings (they are what
// -list-cells prints and what benchmark/expected.json digests) and that
// index addresses exactly the cell Spec put there, scanned-port
// placeholder and batch default resolved.
func TestSweepCellOrder(t *testing.T) {
	s := Sweep{
		Rows:   []Row{rowAllActive, rowPortSpecific, {Label: "b", Treatment: TreatmentFull, Batch: 256}},
		Protos: []proto.Protocol{proto.ICMP, proto.UDP53},
		Gens:   []string{"g0", "g1"},
		Budget: 100,
	}
	first := map[axisOrder][3]string{ // the first three cells: which axis moves fastest
		protoGenRow: {"g0|all-active|ICMP|b100|bs1024", "g0|port-active:ICMP|ICMP|b100|bs1024", "g0|full|ICMP|b100|bs256"},
		rowProtoGen: {"g0|all-active|ICMP|b100|bs1024", "g1|all-active|ICMP|b100|bs1024", "g0|all-active|UDP53|b100|bs1024"},
		protoRowGen: {"g0|all-active|ICMP|b100|bs1024", "g1|all-active|ICMP|b100|bs1024", "g0|port-active:ICMP|ICMP|b100|bs1024"},
	}
	for order, want := range first {
		s.order = order
		cells := s.Spec().Cells
		if len(cells) != 12 {
			t.Fatalf("order %d: %d cells", order, len(cells))
		}
		for i, id := range want {
			if cells[i].ID() != id {
				t.Errorf("order %d cell %d = %s, want %s", order, i, cells[i].ID(), id)
			}
		}
		seen := map[int]bool{}
		for ri, row := range s.Rows {
			for pi, p := range s.Protos {
				for gi, g := range s.Gens {
					i := s.index(ri, pi, gi)
					c := cells[i]
					wantT := row.Treatment
					if ri == 1 {
						wantT = TreatmentPortActive(p)
					}
					if seen[i] || c.Gen != g || c.Proto != p || c.Treatment != wantT {
						t.Fatalf("order %d: index(%d,%d,%d) = %d holds %s", order, ri, pi, gi, i, c.ID())
					}
					seen[i] = true
				}
			}
		}
	}
}

// TestSectionsTable runs every section on a small world: names are unique
// and not the reserved "all", every section prints something, and exactly
// the sections that run generators declare specs.
func TestSectionsTable(t *testing.T) {
	e := testEnv(t)
	p := Params{Protos: []proto.Protocol{proto.ICMP, proto.TCP443}, Gens: []string{"6Tree", "DET"}, Budget: 800}
	names := map[string]bool{}
	for _, s := range Sections {
		if names[s.Name] || s.Name == "" || s.Name == "all" {
			t.Fatalf("section name %q is empty, reserved or repeated", s.Name)
		}
		names[s.Name] = true
		var out bytes.Buffer
		if err := s.Run(context.Background(), e, p, &out); err != nil {
			t.Fatalf("-run %s: %v", s.Name, err)
		}
		if strings.TrimSpace(out.String()) == "" {
			t.Fatalf("-run %s printed nothing", s.Name)
		}
		if specs := s.Specs(e, p); (len(specs) == 0) != (s.sweeps == nil) {
			t.Fatalf("-run %s: %d specs", s.Name, len(specs))
		}
	}
	for _, optIn := range []string{"raw912", "ablation"} {
		if !names[optIn] {
			t.Fatalf("opt-in section %q missing", optIn)
		}
	}
}

// TestDesignIndexNamesSections keeps DESIGN.md's per-experiment index
// honest: its last column is the `-run` name, every one of them is in the
// table, and every section is indexed.
func TestDesignIndexNamesSections(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "## Per-experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)\\| ([^|]*) \\|$").FindAllStringSubmatch(index, -1) {
		for _, name := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(m[1], -1) {
			indexed[name[1]] = true
		}
	}
	for _, s := range Sections {
		if !indexed[s.Name] {
			t.Errorf("DESIGN.md's per-experiment index has no row for -run %s", s.Name)
		}
		delete(indexed, s.Name)
	}
	for name := range indexed {
		t.Errorf("DESIGN.md indexes -run %s, which experiment.Sections does not have", name)
	}
}

package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"seedscan/internal/proto"
	"seedscan/internal/tga/all"
)

// recycledGridDigest is the digest of TestRecyclingLeavesGridDigest's
// tables with recycling off (go test -tags poison, SEEDSCAN_RECYCLE=off).
const recycledGridDigest = "70bbee55ed8008e0500a2b02fee80789bff2aa830574def6d161b9d0d7bb7dfe"

// TestRecyclingLeavesGridDigest runs the sections the Test*Shape tests
// read — Table 3, Figures 1 and 2, Figure 3, Table 4 and Tables 9-12 —
// over the small world with every generator, the grid running cells
// concurrently so that runs take the scratch, scanner plans and 6Prob
// frontiers other runs just gave back. Its tables must hash to the digest
// of a run with recycling off; under the poison tag every recycled value
// arrives scribbled, so state one run leaves for the next shows here.
func TestRecyclingLeavesGridDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every generator over the small world")
	}
	e := testEnv(t)
	p := Params{Protos: []proto.Protocol{proto.ICMP}, Gens: all.ExtendedNames, Budget: 1000}
	var out strings.Builder
	for _, name := range []string{"table3", "fig1", "fig2", "fig3", "table4", "raw912"} {
		i := sectionIndex(name)
		if i < 0 {
			t.Fatalf("no section %q", name)
		}
		if err := Sections[i].Run(context.Background(), e, p, &out); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != recycledGridDigest {
		t.Fatalf("tables digest %s, want %s (recycling off)\n%s", got, recycledGridDigest, out.String())
	}
}

func sectionIndex(name string) int {
	for i, s := range Sections {
		if s.Name == name {
			return i
		}
	}
	return -1
}

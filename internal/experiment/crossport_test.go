package experiment

import (
	"context"
	"strings"
	"testing"

	"seedscan/internal/proto"
)

func TestCrossPortMatrix(t *testing.T) {
	e := testEnv(t)
	rs, err := e.runSweep(context.Background(), e.sweep(crossPort, proto.All[:], []string{"6Tree"}, 1500))
	if err != nil {
		t.Fatal(err)
	}
	// hits[input][scan]: the four port-specific inputs in proto.All order,
	// then All Active.
	hits := make([][proto.Count]int, len(rs.Rows))
	labels := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		labels[i] = row.Label
		for pi, p := range rs.Protos {
			for _, c := range rs.along(i, pi, every) {
				hits[i][p] += metricHits(c)
			}
		}
	}
	if len(labels) != proto.Count+1 || labels[proto.UDP53] != "UDP53" || labels[proto.Count] != "All Active" {
		t.Fatalf("input rows = %q", labels)
	}
	// Every input × scan cell must be populated for ICMP (the most
	// responsive protocol).
	for i := range labels {
		if hits[i][proto.ICMP] == 0 {
			t.Fatalf("input %q found no ICMP hits", labels[i])
		}
	}
	// Appendix D's headline: the UDP53 column is maximized by the UDP53
	// input dataset.
	udpInput := hits[proto.UDP53][proto.UDP53]
	for i, label := range labels {
		if i == int(proto.UDP53) {
			continue
		}
		if hits[i][proto.UDP53] > udpInput {
			t.Errorf("input %q beat the UDP53-specific dataset on UDP53 (%d > %d)",
				label, hits[i][proto.UDP53], udpInput)
		}
	}
	out := renderCrossPort(rs)
	if !strings.Contains(out, "All Active") || !strings.Contains(out, "UDP53") {
		t.Fatal("render wrong")
	}
}

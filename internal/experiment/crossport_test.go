package experiment

import (
	"context"
	"strings"
	"testing"

	"seedscan/internal/proto"
)

func TestCrossPortMatrix(t *testing.T) {
	e := testEnv(t)
	res, err := e.RunCrossPortCtx(context.Background(), []string{"6Tree"}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// Every input × scan cell must be populated for ICMP (the most
	// responsive protocol).
	for i := range InputLabels {
		if res.Hits[i][proto.ICMP] == 0 {
			t.Fatalf("input %q found no ICMP hits", InputLabels[i])
		}
	}
	// Appendix D's headline: the UDP53 column is maximized by the UDP53
	// input dataset.
	udpInput := res.Hits[int(proto.UDP53)][proto.UDP53]
	for i, label := range InputLabels {
		if i == int(proto.UDP53) {
			continue
		}
		if res.Hits[i][proto.UDP53] > udpInput {
			t.Errorf("input %q beat the UDP53-specific dataset on UDP53 (%d > %d)",
				label, res.Hits[i][proto.UDP53], udpInput)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "All Active") || !strings.Contains(out, "UDP53") {
		t.Fatal("render wrong")
	}
}

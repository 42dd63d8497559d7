package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestRecommendationsEvidence(t *testing.T) {
	e := testEnv(t)
	var rs []*sweepResult
	for _, sw := range e.recommendationSweeps([]string{"6Tree", "6Gen"}, 2500) {
		r, err := e.runSweep(context.Background(), sw)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	recs := e.recommendations(rs)
	if len(recs) != 6 {
		t.Fatalf("recommendations = %d", len(recs))
	}
	titles := map[string]bool{}
	for _, r := range recs {
		if r.Title == "" || r.Guidance == "" || r.Evidence == "" {
			t.Fatalf("incomplete recommendation: %+v", r)
		}
		titles[r.Title] = true
	}
	for _, want := range []string{"Dealiasing", "Unresponsive Addresses", "Port-Specific Seeds",
		"Ports", "Generators", "Combining Generators"} {
		if !titles[want] {
			t.Fatalf("missing recommendation %q", want)
		}
	}
	out := renderRecommendations(recs)
	if !strings.Contains(out, "RQ5") || !strings.Contains(out, "evidence:") {
		t.Fatal("render wrong")
	}
}

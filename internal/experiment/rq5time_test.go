package experiment

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"seedscan/internal/experiment/grid"
)

// TestRQ5TimeResumeByteIdentical is the acceptance bar for the RQ5 table:
// a run resumed from a checkpoint store renders byte-identically to both
// the run that wrote the store and a fresh uncheckpointed run.
func TestRQ5TimeResumeByteIdentical(t *testing.T) {
	gens := []string{"6Tree", "DET"}
	render := func(store grid.Store) string {
		env := NewEnv(EnvConfig{NumASes: 40, CollectScale: 0.3, Budget: 3000, GridStore: store})
		cohorts, err := env.runSweep(context.Background(), env.sweep(rq5Cohorts, icmpOnly, gens, 3000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.rq5Time(context.Background(), cohorts, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Epochs) != 4 {
			t.Fatalf("ran %d epochs", len(res.Epochs))
		}
		return res.Render()
	}

	path := filepath.Join(t.TempDir(), "cells.jsonl")
	st1, err := grid.OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	first := render(st1)
	// The store holds the TGA cohort cells plus one cell per daemon epoch.
	if st1.Len() != len(gens)+4 {
		t.Fatalf("store holds %d cells, want %d", st1.Len(), len(gens)+4)
	}
	st1.Close()

	st2, err := grid.OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumed := render(st2)
	fresh := render(nil)

	if first != resumed {
		t.Fatalf("resumed render diverges:\n%s\nvs\n%s", first, resumed)
	}
	if first != fresh {
		t.Fatalf("fresh render diverges:\n%s\nvs\n%s", first, fresh)
	}

	// Sanity on content: the table reports every epoch and some savings.
	if !strings.Contains(first, "RQ5 (metrics over time)") || !strings.Contains(first, "TGA hit persistence") {
		t.Fatalf("render missing tables:\n%s", first)
	}
}

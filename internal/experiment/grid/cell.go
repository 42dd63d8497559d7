// Package grid is the declarative engine behind every experiment harness.
// The paper's evaluation is one big grid — (TGA × seed treatment ×
// protocol × budget) cells rendered into different tables and figures —
// and each RQ/table/figure compiles into a Spec: a named list of Cells.
// The Engine runs specs through a single scheduler that deduplicates
// identical cells across concurrently requested specs (a memo.Map, so a
// cell shared by Figure 3, Table 4, and the raw grid executes exactly
// once) and checkpoints every completed cell into a pluggable Store, so
// an interrupted run resumes where it stopped with byte-identical
// results.
//
// Cells are addressed by name, not by content: the engine dedups them by
// Cell.ID, and the store keys them by the environment fingerprint (the
// EnvConfig knobs that determine outcomes, plus an ipaddr.Digest of the
// collected seed corpus) and Cell.ID. Two processes with the same
// configuration derive the same keys, which is what makes an on-disk
// Store shareable across runs — and what makes a stale store harmless
// under a different configuration: the fingerprints differ, so no key
// matches. Two cells whose treatments name the same seed list keep two
// IDs; it is the executor, which resolves treatments, that can memoise
// execution by seed content (experiment.Env does), so planning stays
// free of scanning.
package grid

import (
	"fmt"
	"slices"

	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// Treatment names a seed-dataset treatment symbolically ("full",
// "dealiased:joint", "port-active:TCP443", ...). The engine treats it as
// an opaque key; the executor resolves it to an address list at run time,
// which keeps cell enumeration (planning, -list-cells) free of scanning.
type Treatment string

// Cell is one point of the evaluation grid: run Gen seeded with
// Treatment's dataset, scan its output on Proto, for Budget candidates,
// with BatchSize-addresses-per-feedback-round granularity. All fields are
// concrete (no zero-means-default): callers normalize defaults before
// building cells so equal work always has equal identity.
type Cell struct {
	Gen       string
	Treatment Treatment
	Proto     proto.Protocol
	Budget    int
	BatchSize int
}

// ID is the cell's canonical identity within one environment: every
// parameter, in fixed order. Specs naming the same (generator, treatment,
// protocol, budget, batch) produce the same ID and therefore share one
// execution.
func (c Cell) ID() string {
	return fmt.Sprintf("%s|%s|%s|b%d|bs%d", c.Gen, c.Treatment, c.Proto, c.Budget, c.BatchSize)
}

// Key is the cell's content address across environments: the environment
// fingerprint plus the cell ID. Store entries are keyed by it.
func (c Cell) Key(fingerprint string) string {
	return fingerprint + "/" + c.ID()
}

// CellResult is what one executed cell yields: the paper's measured
// outcome plus the raw dealiased hit list, which the combined analyses
// (Tables 5-6, Figure 6's greedy cover) union across cells. Hits are
// stored unfiltered; protocol-specific AS exclusions happen inside the
// Outcome, exactly as in the bespoke drivers this engine replaced. A
// result may be shared — by every spec that names the cell, and by cells
// an executor finds to be the same computation — so Hits is read-only.
type CellResult struct {
	Outcome metrics.Outcome
	Hits    []ipaddr.Addr
}

// Spec is a declarative experiment: the cells one table or figure needs.
// Order matters only for progress reporting; results are addressed by
// cell identity.
type Spec struct {
	Name  string
	Cells []Cell
}

// PlannedCell is one unique cell of a multi-spec plan, with the specs
// that requested it.
type PlannedCell struct {
	Cell  Cell
	Specs []string
}

// Plan deduplicates the specs' cells in first-seen order — the exact
// worklist an Engine.Run over the same specs would execute — naming each
// requesting spec once. It is the backing of `experiments -list-cells`.
func Plan(specs ...Spec) []PlannedCell {
	index := make(map[string]int)
	var out []PlannedCell
	for _, s := range specs {
		for _, c := range s.Cells {
			id := c.ID()
			i, ok := index[id]
			if !ok {
				i = len(out)
				index[id] = i
				out = append(out, PlannedCell{Cell: c})
			}
			if !slices.Contains(out[i].Specs, s.Name) {
				out[i].Specs = append(out[i].Specs, s.Name)
			}
		}
	}
	return out
}

package experiment

import (
	"fmt"
	"strings"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
)

// The symbolic treatment vocabulary. Treatments are the grid's seed-axis
// keys: pure names here, resolved to address lists only when a cell
// executes, so specs (and `experiments -list-cells`) enumerate without
// scanning.
const (
	// TreatmentFull is the full collected dataset (Table 2's "All").
	TreatmentFull grid.Treatment = "full"
	// TreatmentAllActive is RQ1.b's joint-dealiased responsive-on-any-
	// protocol dataset.
	TreatmentAllActive grid.Treatment = "all-active"
)

// TreatmentDealiased names the full dataset under one of Table 2's
// dealiasing treatments.
func TreatmentDealiased(m alias.Mode) grid.Treatment {
	return grid.Treatment("dealiased:" + m.String())
}

// TreatmentPortActive names RQ2's port-specific dataset.
func TreatmentPortActive(p proto.Protocol) grid.Treatment {
	return grid.Treatment("port-active:" + p.String())
}

// treatmentSourceActive names RQ3's per-source active dataset.
func treatmentSourceActive(src seeds.Source) grid.Treatment {
	return grid.Treatment("source-active:" + src.String())
}

// TreatmentSeeds resolves a treatment to its canonical (sorted) seed
// list, building and caching the underlying dataset on first use. Safe
// for concurrent cold calls — every cache on the resolution path is a
// memo.Map.
func (e *Env) TreatmentSeeds(t grid.Treatment) ([]ipaddr.Addr, error) {
	s := string(t)
	switch {
	case t == TreatmentFull:
		return e.Full.SortedSlice(), nil
	case t == TreatmentAllActive:
		return e.AllActiveSeeds().SortedSlice(), nil
	case strings.HasPrefix(s, "dealiased:"):
		rest := strings.TrimPrefix(s, "dealiased:")
		for _, m := range alias.Modes {
			if m.String() == rest {
				return e.dealiasedSeeds(m).SortedSlice(), nil
			}
		}
	case strings.HasPrefix(s, "port-active:"):
		rest := strings.TrimPrefix(s, "port-active:")
		for _, p := range proto.All {
			if p.String() == rest {
				return e.PortActiveSeeds(p).SortedSlice(), nil
			}
		}
	case strings.HasPrefix(s, "source-active:"):
		rest := strings.TrimPrefix(s, "source-active:")
		for _, src := range seeds.AllSources {
			if src.String() == rest {
				return e.sourceActiveSeeds(src).SortedSlice(), nil
			}
		}
	}
	return nil, fmt.Errorf("experiment: unknown treatment %q", t)
}

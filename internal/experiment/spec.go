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

// treatments maps every canonical treatment name to the Env cache that
// resolves it.
var treatments = func() map[grid.Treatment]func(*Env) *seeds.Dataset {
	m := map[grid.Treatment]func(*Env) *seeds.Dataset{
		TreatmentFull:      func(e *Env) *seeds.Dataset { return e.Full },
		TreatmentAllActive: (*Env).AllActiveSeeds,
	}
	for _, mode := range alias.Modes {
		m[TreatmentDealiased(mode)] = func(e *Env) *seeds.Dataset { return e.dealiasedSeeds(mode) }
	}
	for _, p := range proto.All {
		m[TreatmentPortActive(p)] = func(e *Env) *seeds.Dataset { return e.PortActiveSeeds(p) }
	}
	for _, src := range seeds.AllSources {
		m[treatmentSourceActive(src)] = func(e *Env) *seeds.Dataset { return e.sourceActiveSeeds(src) }
	}
	return m
}()

// ParseTreatment checks a treatment name and returns its canonical
// spelling, the one grid cells are keyed by: full, all-active,
// dealiased:MODE, port-active:PROTO or source-active:SOURCE. PROTO may be
// given as the -proto flags spell it (port-active:tcp443 is
// port-active:TCP443); any other name is an error.
func ParseTreatment(name string) (grid.Treatment, error) {
	t := grid.Treatment(name)
	if _, ok := treatments[t]; ok {
		return t, nil
	}
	if arg, ok := strings.CutPrefix(name, "port-active:"); ok {
		if p, err := proto.Parse(arg); err == nil {
			return TreatmentPortActive(p), nil
		}
	}
	return "", fmt.Errorf("experiment: unknown treatment %q", name)
}

// TreatmentSeeds resolves a treatment to its canonical (sorted) seed
// list, building and caching the underlying dataset on first use; later
// calls return the cached slice, which callers must not modify. Safe for
// concurrent cold calls — every cache on the resolution path is a
// memo.Map.
func (e *Env) TreatmentSeeds(t grid.Treatment) ([]ipaddr.Addr, error) {
	ds, err := e.treatment(t)
	if err != nil {
		return nil, err
	}
	return ds.SortedSlice(), nil
}

// treatment resolves t to its cached dataset.
func (e *Env) treatment(t grid.Treatment) (*seeds.Dataset, error) {
	t, err := ParseTreatment(string(t))
	if err != nil {
		return nil, err
	}
	return treatments[t](e), nil
}

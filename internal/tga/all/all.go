// Package all registers every implemented TGA behind one factory. Two
// tiers: Names is the paper's study set (the eight TGAs §4 evaluates, in
// canonical presentation order); ExtendedNames adds the generators
// implemented beyond the study set (AddrMiner, 6Prob). Experiments that
// reproduce the paper iterate Names; the extended grid measures what the
// paper never did.
package all

import (
	"fmt"

	"seedscan/internal/tga"
	"seedscan/internal/tga/addrminer"
	"seedscan/internal/tga/det"
	"seedscan/internal/tga/entropyip"
	"seedscan/internal/tga/sixgen"
	"seedscan/internal/tga/sixgraph"
	"seedscan/internal/tga/sixhit"
	"seedscan/internal/tga/sixprob"
	"seedscan/internal/tga/sixscan"
	"seedscan/internal/tga/sixsense"
	"seedscan/internal/tga/sixtree"
)

// Names lists the eight TGAs in the paper's canonical order.
var Names = []string{"6Sense", "DET", "6Tree", "6Scan", "6Graph", "6Gen", "6Hit", "EIP"}

// Every registered generator supports the model/run-state split, which is
// what lets the model cache reuse their mined seed models across
// protocols. AddrMiner names DET's min-entropy tree and adopts it while its
// long-term Store is empty, as it is for every generator New makes; a run
// with a memory mines seeds ∪ memory itself (see the addrminer package).
// 6Graph derives its patterns from that tree, which the cache mines once
// for all three.
var (
	_ tga.ModelBuilder = (*sixsense.Generator)(nil)
	_ tga.ModelBuilder = (*det.Generator)(nil)
	_ tga.ModelBuilder = (*sixtree.Generator)(nil)
	_ tga.ModelBuilder = (*sixscan.Generator)(nil)
	_ tga.ModelBuilder = (*sixgraph.Generator)(nil)
	_ tga.ModelBuilder = (*sixgen.Generator)(nil)
	_ tga.ModelBuilder = (*sixhit.Generator)(nil)
	_ tga.ModelBuilder = (*entropyip.Generator)(nil)
	_ tga.ModelBuilder = (*addrminer.Generator)(nil)
	_ tga.ModelBuilder = (*sixprob.Generator)(nil)
	_ tga.ModelDeriver = (*sixgraph.Generator)(nil)
)

// ExtendedNames adds the generators implemented beyond the paper's study
// set: AddrMiner (the DET-derived long-term miner whose hitlist §5.1
// consumes as a seed source) and 6Prob (the probability-trie generator
// from the modern structure-aware family).
var ExtendedNames = append(append([]string(nil), Names...), "AddrMiner", "6Prob")

// New constructs a fresh generator by name.
func New(name string) (tga.Generator, error) {
	switch name {
	case "6Sense":
		return sixsense.New(), nil
	case "DET":
		return det.New(), nil
	case "6Tree":
		return sixtree.New(), nil
	case "6Scan":
		return sixscan.New(), nil
	case "6Graph":
		return sixgraph.New(), nil
	case "6Gen":
		return sixgen.New(), nil
	case "6Hit":
		return sixhit.New(), nil
	case "EIP":
		return entropyip.New(), nil
	case "AddrMiner":
		return addrminer.New(nil), nil
	case "6Prob":
		return sixprob.New(), nil
	}
	return nil, fmt.Errorf("tga/all: unknown generator %q", name)
}

// MustNew is New but panics on unknown names; for tables driven by Names.
func MustNew(name string) tga.Generator {
	g, err := New(name)
	if err != nil {
		panic(err)
	}
	return g
}

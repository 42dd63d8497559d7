package ipaddr

import "sort"

// lpmLeaf marks an LPMTable entry as a terminal value rather than a child
// node reference. Values therefore carry at most 31 bits.
const lpmLeaf = 1 << 31

// LPMTable is a flat, array-backed longest-prefix-match table: a stride-4
// multibit trie whose nodes are 16 consecutive uint32 entries in one slice.
// A lookup is one bounded loop of array indexing — no pointer chasing, no
// interface boxing — and the whole table lives in a single allocation.
//
// An entry is either 0 (no route), a terminal (lpmLeaf | value), or the id
// of a child node (node ids are indexes into the node array; the root is
// node 0, so a nonzero entry below lpmLeaf is unambiguous).
//
// Build one from a prefix list with BuildLPM; the table is immutable
// afterwards and safe for concurrent lookups.
type LPMTable struct {
	nodes   []uint32
	skipNyb int
}

// BuildLPM builds a table mapping prefixes[i] to values[i]; a nil values
// maps every prefix to 0, for callers that only ask whether some prefix
// matches. Values must fit in 31 bits. When a prefix is listed twice, the
// later value wins. skipBits (a multiple of 4) declares leading bits
// shared by all listed prefixes and all future lookups — a per-AS table
// over a /28 passes 28 and the table starts matching at nybble 7, keeping
// it shallow. Prefixes shorter than skipBits act as the table default.
func BuildLPM(prefixes []Prefix, values []uint32, skipBits int) *LPMTable {
	if skipBits%4 != 0 || skipBits < 0 || skipBits > 128 {
		panic("ipaddr: BuildLPM skipBits must be a multiple of 4 in [0, 128]")
	}
	if values != nil && len(values) != len(prefixes) {
		panic("ipaddr: BuildLPM needs one value per prefix")
	}
	// Insert shortest-first: a prefix's span then only ever overwrites empty
	// entries or terminals of shorter or equal prefixes, never child nodes
	// (children are created solely by longer prefixes, which have not been
	// inserted yet). That keeps insertion a plain span write plus
	// leaf-pushing on the descent, and the stable sort lets a repeated
	// prefix's later value overwrite its earlier one.
	order := make([]int, len(prefixes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return prefixes[order[i]].Bits() < prefixes[order[j]].Bits() })
	lt := &LPMTable{nodes: make([]uint32, 16, 16*(len(prefixes)+1)), skipNyb: skipBits / 4}
	for _, i := range order {
		var v uint32
		if values != nil {
			v = values[i]
		}
		if v&lpmLeaf != 0 {
			panic("ipaddr: BuildLPM value exceeds 31 bits")
		}
		lt.insert(prefixes[i], v)
	}
	return lt
}

// newNode appends a node with every entry set to fill and returns its id.
func (t *LPMTable) newNode(fill uint32) int {
	id := len(t.nodes) / 16
	for i := 0; i < 16; i++ {
		t.nodes = append(t.nodes, fill)
	}
	return id
}

func (t *LPMTable) insert(p Prefix, v uint32) {
	leaf := v | lpmLeaf
	db := p.Bits() - t.skipNyb*4
	if db <= 0 {
		// At or above the skipped depth: the prefix covers the whole table.
		for i := 0; i < 16; i++ {
			if e := t.nodes[i]; e == 0 || e&lpmLeaf != 0 {
				t.nodes[i] = leaf
			}
		}
		return
	}
	a := p.Addr()
	n := 0
	full := (db - 1) / 4
	for i := 0; i < full; i++ {
		idx := n*16 + int(a.Nybble(t.skipNyb+i))
		switch e := t.nodes[idx]; {
		case e == 0:
			c := t.newNode(0)
			t.nodes[idx] = uint32(c)
			n = c
		case e&lpmLeaf != 0:
			// Leaf push: the covering shorter prefix becomes the new child
			// node's default, so addresses outside this prefix still match it.
			c := t.newNode(e)
			t.nodes[idx] = uint32(c)
			n = c
		default:
			n = int(e)
		}
	}
	// The final 1-4 bits select a span of entries in the last node.
	r := db - full*4
	width := 1 << (4 - r)
	ny := int(a.Nybble(t.skipNyb + full))
	start := ny &^ (width - 1)
	for i := start; i < start+width; i++ {
		t.nodes[n*16+i] = leaf
	}
}

// Lookup returns the value of the longest stored prefix containing a. The
// skipped leading nybbles are assumed to match (the caller routed a to this
// table); only the remaining nybbles are inspected.
func (t *LPMTable) Lookup(a Addr) (uint32, bool) {
	n := 0
	nodes := t.nodes
	for ny := t.skipNyb; ny < NybbleCount; ny++ {
		e := nodes[n*16+int(a.Nybble(ny))]
		if e&lpmLeaf != 0 {
			return e &^ lpmLeaf, true
		}
		if e == 0 {
			return 0, false
		}
		n = int(e)
	}
	return 0, false
}

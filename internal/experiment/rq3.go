package experiment

import (
	"slices"

	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/world"
)

// table5Big declares Table 5's big-budget side: one All Active ICMP run
// per generator at the per-source budget times the number of sources.
func (e *Env) table5Big(perSource Sweep) Sweep {
	return e.sweep(Sweep{Name: "Table 5", Rows: []Row{rowAllActive}}, icmpOnly, perSource.Gens, perSource.Budget*len(perSource.Rows))
}

// Table5Row compares one generator's combined per-source output with one
// big-budget run on the All Active dataset (ICMP).
type Table5Row struct {
	Generator             string
	CombinedHits, BigHits int
	CombinedASes, BigASes int
}

// Table5Result reproduces Table 5.
type Table5Result struct{ Rows []Table5Row }

// table5 reproduces Table 5: the union of each generator's per-source ICMP
// runs versus one run with a 12× budget on All Active. Without ICMP among
// rq3's protocols the combined side is empty.
func (e *Env) table5(rq3, big *SweepResult) *Table5Result {
	db := e.World.ASDB()
	icmp := slices.Index(rq3.Protos, proto.ICMP)
	res := &Table5Result{}
	for gi, g := range rq3.Gens {
		combined := ipaddr.NewSet()
		for ri := 0; icmp >= 0 && ri < len(rq3.Rows); ri++ {
			combined.AddAll(rq3.At(ri, icmp, gi).Hits)
		}
		combinedAddrs := filterASN(combined.Slice(), db, world.PathologicalASN)
		o := big.At(0, 0, gi).Outcome
		res.Rows = append(res.Rows, Table5Row{
			Generator:    g,
			CombinedHits: len(combinedAddrs),
			CombinedASes: db.CountASes(combinedAddrs),
			BigHits:      o.Hits,
			BigASes:      o.ASes,
		})
	}
	return res
}

func filterASN(addrs []ipaddr.Addr, db *asdb.DB, asn int) []ipaddr.Addr {
	out := addrs[:0:0]
	for _, a := range addrs {
		if got, ok := db.Lookup(a); ok && got == asn {
			continue
		}
		out = append(out, a)
	}
	return out
}

// Render prints Table 5.
func (r *Table5Result) Render() string {
	t := &Table{
		Title:  "Table 5: Combined per-source ICMP output vs. one big-budget All Active run",
		Header: []string{"Generator", "Hits(Combined)", "Hits(Big)", "ASes(Combined)", "ASes(Big)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Generator, FmtInt(row.CombinedHits), FmtInt(row.BigHits),
			FmtInt(row.CombinedASes), FmtInt(row.BigASes))
	}
	return t.String()
}

// Table6Cell is one (source, protocol) cell of Table 6: the top ASes among
// the combined discovered actives of all generators, with organization
// labels, plus the total AS count.
type Table6Cell struct {
	Top   []asdb.ASCount
	Total int
}

// table6Cell characterizes one (source row, protocol) cell from RQ3's runs.
func (e *Env) table6Cell(rq3 *SweepResult, ri, pi, topN int) Table6Cell {
	db := e.World.ASDB()
	combined := ipaddr.NewSet()
	for gi := range rq3.Gens {
		combined.AddAll(rq3.At(ri, pi, gi).Hits)
	}
	addrs := combined.Slice()
	if rq3.Protos[pi] == proto.ICMP {
		addrs = filterASN(addrs, db, world.PathologicalASN)
	}
	top := db.TopASes(addrs)
	if len(top) > topN {
		top = top[:topN]
	}
	return Table6Cell{Top: top, Total: len(db.ASSet(addrs))}
}

// renderTable6 prints Table 6 from RQ3's runs.
func (e *Env) renderTable6(rq3 *SweepResult) string {
	out := ""
	for pi, p := range rq3.Protos {
		t := &Table{
			Title:  "Table 6 (" + p.String() + "): top ASes and total ASes per source",
			Header: []string{"Source", "1st", "2nd", "3rd", "Total"},
		}
		for ri, row := range rq3.Rows {
			cell := e.table6Cell(rq3, ri, pi, 3)
			cols := make([]string, 3)
			for i := range cols {
				if i < len(cell.Top) {
					tc := cell.Top[i]
					cols[i] = fmtPct(tc.Share) + " " + tc.AS.Type.String()
				} else {
					cols[i] = "-"
				}
			}
			t.AddRow(row.Label, cols[0], cols[1], cols[2], FmtInt(cell.Total))
		}
		out += t.String() + "\n"
	}
	return out
}

package experiment

import (
	"slices"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// table5Big declares Table 5's big-budget side: one All Active ICMP run
// per generator at the per-source budget times the number of sources.
func (e *Env) table5Big(perSource Sweep) Sweep {
	return e.sweep(Sweep{Name: "Table 5", Rows: []Row{rowAllActive}}, icmpOnly, perSource.Gens, perSource.Budget*len(perSource.Rows))
}

// renderTable5 prints Table 5: the union of each generator's per-source
// ICMP runs versus one run with a 12× budget on All Active. Without ICMP
// among rq3's protocols the combined side is empty.
func renderTable5(rq3, big *SweepResult) string {
	t := &Table{
		Title:  "Table 5: Combined per-source ICMP output vs. one big-budget All Active run",
		Header: []string{"Generator", "Hits(Combined)", "Hits(Big)", "ASes(Combined)", "ASes(Big)"},
	}
	icmp := slices.Index(rq3.Protos, proto.ICMP)
	for gi, g := range rq3.Gens {
		var combined []ipaddr.Addr
		if icmp >= 0 {
			combined = rq3.union(every, icmp, gi)
		}
		b := big.At(0, 0, gi)
		t.AddRow(g, FmtInt(len(combined)), FmtInt(metricHits(b)),
			FmtInt(len(rq3.db.ASSet(combined))), FmtInt(metricASes(b)))
	}
	return t.String()
}

// renderTable6 prints Table 6 from RQ3's runs: per (source, protocol), the
// top three ASes among all generators' combined hits, with organization
// types, and the total AS count.
func renderTable6(rq3 *SweepResult) string {
	out := ""
	for pi, p := range rq3.Protos {
		t := &Table{
			Title:  "Table 6 (" + p.String() + "): top ASes and total ASes per source",
			Header: []string{"Source", "1st", "2nd", "3rd", "Total"},
		}
		for ri, row := range rq3.Rows {
			addrs := rq3.union(ri, pi, every)
			top := rq3.db.TopASes(addrs)
			cols := []string{row.Label, "-", "-", "-", FmtInt(len(rq3.db.ASSet(addrs)))}
			for i := 0; i < 3 && i < len(top); i++ {
				cols[1+i] = fmtPct(top[i].Share) + " " + top[i].AS.Type.String()
			}
			t.AddRow(cols...)
		}
		out += t.String() + "\n"
	}
	return out
}

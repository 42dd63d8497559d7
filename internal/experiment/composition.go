package experiment

import (
	"seedscan/internal/alias"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
)

// datasetSummaryRow is one row of Table 3.
type datasetSummaryRow struct {
	Source     string
	Category   string
	Unique     int
	ASes       int
	Dealiased  int
	Active     [proto.Count]int
	ActiveAny  int
	ActiveASes int
}

// datasetSummary reproduces Table 3: per-source population, AS coverage,
// dealiased volume, and per-protocol responsiveness, plus the aggregate
// rows (All Domains / All Routers / All Hitlists / All Sources).
type datasetSummary struct {
	Rows []datasetSummaryRow
}

// datasetSummary computes Table 3 for the environment.
func (e *Env) datasetSummary() *datasetSummary {
	dealiased := e.dealiasedSeeds(alias.ModeJoint)
	allActive := e.AllActiveSeeds()
	db := e.World.ASDB()

	row := func(name, cat string, ds *seeds.Dataset) datasetSummaryRow {
		r := datasetSummaryRow{Source: name, Category: cat}
		r.Unique = ds.Len()
		r.ASes = ds.ASCount(db)
		r.Dealiased = ds.Intersect(seeds.FromSet("", dealiased.Addrs), "").Len()
		for _, p := range proto.All {
			r.Active[p] = ds.Restrict("", e.PortActiveSeeds(p).Addrs).Len()
		}
		act := ds.Restrict("", allActive.Addrs)
		r.ActiveAny = act.Len()
		r.ActiveASes = act.ASCount(db)
		return r
	}

	var out datasetSummary
	domains := seeds.NewDataset("All Domains")
	routers := seeds.NewDataset("All Routers")
	hitlists := seeds.NewDataset("All Hitlists")
	for _, src := range seeds.AllSources {
		ds := e.Sources[src]
		out.Rows = append(out.Rows, row(src.String(), src.Category(), ds))
		switch src.Category() {
		case "D":
			domains.Addrs.AddSet(ds.Addrs)
		case "R":
			routers.Addrs.AddSet(ds.Addrs)
		default:
			hitlists.Addrs.AddSet(ds.Addrs)
		}
	}
	out.Rows = append(out.Rows,
		row("All Domains", "D", domains),
		row("All Routers", "R", routers),
		row("All Hitlists", "Both", hitlists),
		row("All Sources", "Both", e.Full),
	)
	return &out
}

// Render prints the summary in Table 3's layout.
func (s *datasetSummary) Render() string {
	t := &table{
		Title: "Table 3: Full summary of all seed data sources",
		Header: []string{"Source", "Pop.", "Unique", "ASes", "Dealiased",
			"ICMP", "TCP80", "TCP443", "UDP53", "Active", "ActiveASes"},
	}
	for _, r := range s.Rows {
		t.AddRow(r.Source, r.Category, FmtInt(r.Unique), FmtInt(r.ASes), FmtInt(r.Dealiased),
			FmtInt(r.Active[proto.ICMP]), FmtInt(r.Active[proto.TCP80]),
			FmtInt(r.Active[proto.TCP443]), FmtInt(r.Active[proto.UDP53]),
			FmtInt(r.ActiveAny), FmtInt(r.ActiveASes))
	}
	return t.String()
}

// sourceOverlaps reproduces Figure 1 (responsive=false) and Figure 2
// (responsive=true): pairwise overlap of the seed sources by IP and by AS.
func (e *Env) sourceOverlaps(responsive bool) (ips, ases metrics.OverlapMatrix) {
	names := make([]string, len(seeds.AllSources))
	addrs := make([][]ipaddr.Addr, len(seeds.AllSources))
	for i, src := range seeds.AllSources {
		ds := e.Sources[src]
		if responsive {
			ds = ds.Restrict("", e.AllActiveSeeds().Addrs)
		}
		names[i], addrs[i] = src.String(), ds.Slice()
	}
	ipSets, asSets := metrics.NamedSets(names, addrs, e.World.ASDB())
	return metrics.Overlaps(names, ipSets), metrics.Overlaps(names, asSets)
}

// renderOverlap prints an overlap matrix in Figure 1/2's layout.
func renderOverlap(title string, m metrics.OverlapMatrix) string {
	t := &table{Title: title, Header: append(append([]string{""}, m.Names...), "Overlap")}
	for i, n := range m.Names {
		cells := []string{n}
		for j := range m.Names {
			cells = append(cells, fmtPct(m.Frac[i][j]))
		}
		cells = append(cells, fmtPct(m.AnyOther[i]))
		t.AddRow(cells...)
	}
	return t.String()
}

// renderTable7 prints the paper's collection dates (Table 7) — facts of
// the authors' campaign, documented rather than simulated.
func renderTable7() string {
	t := &table{
		Title:  "Table 7: Date of dataset collection (paper's campaign)",
		Header: []string{"Source", "Collected", "Description"},
	}
	for _, src := range seeds.AllSources {
		m := seeds.Meta[src]
		t.AddRow(src.String(), m.Collected, m.Description)
	}
	return t.String()
}

// RenderWithPaper prints Table 3 with paper-vs-measured ratio columns:
// the fraction of each source that survives dealiasing and the fraction
// responsive, side by side with the paper's. Shape comparisons live here;
// absolute counts differ by the simulation's scale.
func (s *datasetSummary) RenderWithPaper() string {
	t := &table{
		Title:  "Table 3 (shape comparison): dealiased%% and active%% vs. the paper",
		Header: []string{"Source", "Unique", "Dealiased%", "Paper", "Active%", "Paper"},
	}
	pct := func(n, d int) string {
		if d == 0 {
			return "-"
		}
		return fmtPct(float64(n) / float64(d))
	}
	// The first len(seeds.AllSources) rows are the sources, in that order.
	for i, src := range seeds.AllSources {
		row, m := s.Rows[i], seeds.Meta[src]
		t.AddRow(row.Source, FmtInt(row.Unique),
			pct(row.Dealiased, row.Unique), pct(m.PaperDealiased, m.PaperUnique),
			pct(row.ActiveAny, row.Unique), pct(m.PaperActive, m.PaperUnique))
	}
	return t.String()
}

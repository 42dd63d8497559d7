package experiment

import (
	"context"

	"seedscan/internal/asdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
	"seedscan/internal/seeds"
	"seedscan/internal/world"
)

// RQ3Result holds the per-source TGA runs behind Tables 5, 6, and 13-15.
type RQ3Result struct {
	Budget  int
	Protos  []proto.Protocol
	Gens    []string
	Sources []seeds.Source
	// Outcome[src][p][gen] is the measured outcome of one run.
	Outcome map[seeds.Source]map[proto.Protocol]map[string]metrics.Outcome
	// Hits[src][p][gen] is the dealiased hit list of that run, kept so the
	// combined analyses (Tables 5-6) can union them.
	Hits map[seeds.Source]map[proto.Protocol]map[string][]ipaddr.Addr
}

// RunRQ3Ctx runs every generator on every source-specific active dataset
// for the given protocols. Sources whose active dataset is empty yield
// zero outcomes without running (the grid executor's skip).
func (e *Env) RunRQ3Ctx(ctx context.Context, protos []proto.Protocol, gens []string, sources []seeds.Source, budget int) (*RQ3Result, error) {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	if sources == nil {
		sources = seeds.AllSources
	}
	rs, err := e.Grid().Run(ctx, e.SpecRQ3(protos, gens, sources, budget))
	if err != nil {
		return nil, err
	}
	res := &RQ3Result{
		Budget: budget, Protos: protos, Gens: gens, Sources: sources,
		Outcome: make(map[seeds.Source]map[proto.Protocol]map[string]metrics.Outcome),
		Hits:    make(map[seeds.Source]map[proto.Protocol]map[string][]ipaddr.Addr),
	}
	for _, src := range sources {
		res.Outcome[src] = make(map[proto.Protocol]map[string]metrics.Outcome)
		res.Hits[src] = make(map[proto.Protocol]map[string][]ipaddr.Addr)
		for _, p := range protos {
			res.Outcome[src][p] = make(map[string]metrics.Outcome)
			res.Hits[src][p] = make(map[string][]ipaddr.Addr)
			for _, g := range gens {
				c := rs.Of(e.cell(g, TreatmentSourceActive(src), p, budget, 0))
				res.Outcome[src][p][g] = c.Outcome
				res.Hits[src][p][g] = c.Hits
			}
		}
	}
	return res, nil
}

// Table5Row compares one generator's combined per-source output with one
// big-budget run on the All Active dataset (ICMP).
type Table5Row struct {
	Generator                string
	CombinedHits, BigHits    int
	CombinedASes, BigASes    int
	BigBudget, SourceBudgets int
}

// Table5Result reproduces Table 5.
type Table5Result struct{ Rows []Table5Row }

// RunTable5Ctx reproduces Table 5: the union of each generator's twelve
// source-specific ICMP runs versus one run with a 12× budget on All
// Active. rq3 must contain ICMP runs for every source.
func (e *Env) RunTable5Ctx(ctx context.Context, rq3 *RQ3Result) (*Table5Result, error) {
	db := e.World.ASDB()
	bigBudget := rq3.Budget * len(rq3.Sources)
	rs, err := e.Grid().Run(ctx, e.SpecTable5(rq3.Gens, len(rq3.Sources), rq3.Budget))
	if err != nil {
		return nil, err
	}
	res := &Table5Result{}
	for _, g := range rq3.Gens {
		combined := ipaddr.NewSet()
		for _, src := range rq3.Sources {
			combined.AddAll(rq3.Hits[src][proto.ICMP][g])
		}
		combinedAddrs := filterASN(combined.Slice(), db, world.PathologicalASN)

		big := rs.Of(e.cell(g, TreatmentAllActive, proto.ICMP, bigBudget, 0))
		res.Rows = append(res.Rows, Table5Row{
			Generator:     g,
			CombinedHits:  len(combinedAddrs),
			CombinedASes:  db.CountASes(combinedAddrs),
			BigHits:       big.Outcome.Hits,
			BigASes:       big.Outcome.ASes,
			BigBudget:     bigBudget,
			SourceBudgets: rq3.Budget,
		})
	}
	return res, nil
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
		t.AddRow(row.Generator, fmtInt(row.CombinedHits), fmtInt(row.BigHits),
			fmtInt(row.CombinedASes), fmtInt(row.BigASes))
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

// Table6Result reproduces Table 6.
type Table6Result struct {
	Sources []seeds.Source
	Protos  []proto.Protocol
	Cells   map[seeds.Source]map[proto.Protocol]Table6Cell
}

// Table6 derives the AS characterization from RQ3's runs.
func (e *Env) Table6(rq3 *RQ3Result, topN int) *Table6Result {
	db := e.World.ASDB()
	res := &Table6Result{
		Sources: rq3.Sources, Protos: rq3.Protos,
		Cells: make(map[seeds.Source]map[proto.Protocol]Table6Cell),
	}
	for _, src := range rq3.Sources {
		res.Cells[src] = make(map[proto.Protocol]Table6Cell)
		for _, p := range rq3.Protos {
			combined := ipaddr.NewSet()
			for _, g := range rq3.Gens {
				combined.AddAll(rq3.Hits[src][p][g])
			}
			addrs := combined.Slice()
			if p == proto.ICMP {
				addrs = filterASN(addrs, db, world.PathologicalASN)
			}
			top := db.TopASes(addrs)
			cell := Table6Cell{Total: len(db.ASSet(addrs))}
			if len(top) > topN {
				top = top[:topN]
			}
			cell.Top = top
			res.Cells[src][p] = cell
		}
	}
	return res
}

// Render prints Table 6.
func (r *Table6Result) Render() string {
	out := ""
	for _, p := range r.Protos {
		t := &Table{
			Title:  "Table 6 (" + p.String() + "): top ASes and total ASes per source",
			Header: []string{"Source", "1st", "2nd", "3rd", "Total"},
		}
		for _, src := range r.Sources {
			cell := r.Cells[src][p]
			cols := make([]string, 3)
			for i := range cols {
				if i < len(cell.Top) {
					tc := cell.Top[i]
					cols[i] = fmtPct(tc.Share) + " " + tc.AS.Type.String()
				} else {
					cols[i] = "-"
				}
			}
			t.AddRow(src.String(), cols[0], cols[1], cols[2], fmtInt(cell.Total))
		}
		out += t.String() + "\n"
	}
	return out
}

// RenderRaw prints Tables 13-15: raw hits and ASes per source × generator
// for one protocol.
func (r *RQ3Result) RenderRaw(p proto.Protocol) string {
	hits := &Table{
		Title:  "Raw Hits per source (" + p.String() + ") — Tables 13/14",
		Header: append([]string{"Dataset"}, r.Gens...),
	}
	ases := &Table{
		Title:  "Raw ASes per source (" + p.String() + ") — Tables 13/15",
		Header: append([]string{"Dataset"}, r.Gens...),
	}
	for _, src := range r.Sources {
		hr := []string{src.String()}
		ar := []string{src.String()}
		for _, g := range r.Gens {
			o := r.Outcome[src][p][g]
			hr = append(hr, fmtInt(o.Hits))
			ar = append(ar, fmtInt(o.ASes))
		}
		hits.AddRow(hr...)
		ases.AddRow(ar...)
	}
	return hits.String() + "\n" + ases.String()
}

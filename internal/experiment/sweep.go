package experiment

import (
	"context"
	"fmt"

	"seedscan/internal/asdb"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// row is one labelled seed treatment of a sweep: the name a table prints
// beside the treatment its cells are seeded with. Batch is the feedback
// batch size, the ablation's axis; zero means the experiment default.
type row struct {
	Label     string
	Treatment grid.Treatment
	Batch     int
}

// treatmentScannedPort is the one row that depends on the column: RQ2's
// port-specific dataset, resolved to TreatmentPortActive of the scanned
// protocol when the sweep enumerates its cells.
const treatmentScannedPort grid.Treatment = "port-active:<scanned>"

// axisOrder is the nesting of a sweep's axes in its cell list: the order
// cells are planned, listed by -list-cells and started in.
type axisOrder int

const (
	protoGenRow axisOrder = iota // a generator's rows side by side: the comparisons, Table 4
	rowProtoGen                  // one dataset at a time: the per-source runs, Figure 7
	protoRowGen                  // the appendix layout: Tables 9-12
)

// sweep declares the cells of one table or figure, once: every row ×
// protocol × generator at one budget. Spec enumerates them for the engine
// and for -list-cells; sweepResult.At reads results back by the same
// positions, so what is planned and what is folded cannot disagree.
// sections.go declares the evaluation's sweeps; Env.sweep closes their axes.
type sweep struct {
	Name   string
	Rows   []row
	Protos []proto.Protocol
	Gens   []string
	Budget int
	order  axisOrder
}

// sweep closes a declared sweep's axes, resolving a zero budget to the
// environment's here so equal work always has equal cell identity.
func (e *Env) sweep(s sweep, protos []proto.Protocol, gens []string, budget int) sweep {
	if budget <= 0 {
		budget = e.Cfg.Budget
	}
	s.Protos, s.Gens, s.Budget = protos, gens, budget
	return s
}

// index is the position of (row, protocol, generator) in the cell list.
func (s *sweep) index(row, pi, gi int) int {
	switch s.order {
	case rowProtoGen:
		return (row*len(s.Protos)+pi)*len(s.Gens) + gi
	case protoRowGen:
		return (pi*len(s.Rows)+row)*len(s.Gens) + gi
	default:
		return (pi*len(s.Gens)+gi)*len(s.Rows) + row
	}
}

// Spec enumerates the sweep's cells, fully normalized (no zero-means-
// default field survives into a cell).
func (s sweep) Spec() grid.Spec {
	spec := grid.Spec{Name: s.Name, Cells: make([]grid.Cell, len(s.Rows)*len(s.Protos)*len(s.Gens))}
	for r, row := range s.Rows {
		batch := row.Batch
		if batch <= 0 {
			batch = experimentBatchSize
		}
		for pi, p := range s.Protos {
			t := row.Treatment
			if t == treatmentScannedPort {
				t = TreatmentPortActive(p)
			}
			for gi, g := range s.Gens {
				spec.Cells[s.index(r, pi, gi)] = grid.Cell{Gen: g, Treatment: t, Proto: p, Budget: s.Budget, BatchSize: batch}
			}
		}
	}
	return spec
}

// sweepResult is a sweep that has run: its declaration, one result per
// cell in Spec order, and the AS registry the cells' hits were measured
// against.
type sweepResult struct {
	sweep
	cells []grid.CellResult
	db    *asdb.DB
}

// At returns the result of row `row` for the pi-th protocol and gi-th
// generator of the sweep.
func (r *sweepResult) At(row, pi, gi int) grid.CellResult { return r.cells[r.index(row, pi, gi)] }

// metric is one number a table reads off a cell.
type metric func(grid.CellResult) int

// The metrics the tables print: §4.1's hits, ASes and generated aliases,
// and the ablation's hit count before the ICMP AS filter.
func metricHits(c grid.CellResult) int    { return c.Outcome.Hits }
func metricASes(c grid.CellResult) int    { return c.Outcome.ASes }
func metricAliases(c grid.CellResult) int { return c.Outcome.Aliases }
func metricRawHits(c grid.CellResult) int { return len(c.Hits) }

// ratio is m's Performance Ratio of row 1 (the changed treatment) over
// row 0 (the original) for the pi-th protocol and gi-th generator.
func (r *sweepResult) ratio(m metric, pi, gi int) float64 {
	return metrics.PerformanceRatio(float64(m(r.At(1, pi, gi))), float64(m(r.At(0, pi, gi))))
}

// meanRatio averages ratio over the generators: the headline numbers
// ("dealiasing buys +1.7 PR on average").
func (r *sweepResult) meanRatio(m metric, pi int) float64 {
	if len(r.Gens) == 0 {
		return 0
	}
	sum := 0.0
	for gi := range r.Gens {
		sum += r.ratio(m, pi, gi)
	}
	return sum / float64(len(r.Gens))
}

// every stands for a whole axis in along and union.
const every = -1

// along lists the pi-th protocol's results along one axis, in the
// sweep's order: with row == every, generator gi under each row; with
// gi == every, each generator's cell of row `row`.
func (r *sweepResult) along(row, pi, gi int) []grid.CellResult {
	var out []grid.CellResult
	for ri := range r.Rows {
		for g := range r.Gens {
			if (row == every || ri == row) && (gi == every || g == gi) {
				out = append(out, r.At(ri, pi, g))
			}
		}
	}
	return out
}

// union joins the hits of the cells along selects and drops those §4.1
// leaves out of the protocol's evaluation, through the filter runTGA
// measures each cell with.
func (r *sweepResult) union(row, pi, gi int) []ipaddr.Addr {
	u := ipaddr.NewSet()
	for _, c := range r.along(row, pi, gi) {
		u.AddAll(c.Hits)
	}
	return metrics.ExcludeAS(u.Slice(), r.db, excludedASN(r.Protos[pi]))
}

// labels lists the rows' labels.
func (s *sweep) labels() []string {
	out := make([]string, len(s.Rows))
	for i, row := range s.Rows {
		out[i] = row.Label
	}
	return out
}

// matrix lays values out as a table under title: one line per rows label,
// one column per cols label, the corner header naming the row axis.
func matrix(title, corner string, rows, cols []string, value func(i, j int) int) string {
	t := &table{Title: title, Header: append([]string{corner}, cols...)}
	for i, label := range rows {
		cells := []string{label}
		for j := range cols {
			cells = append(cells, FmtInt(value(i, j)))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// runSweep executes the sweep's cells through the shared grid engine.
// Cells another sweep already ran, or a resume store holds, are not re-run.
func (e *Env) runSweep(ctx context.Context, s sweep) (*sweepResult, error) {
	spec := s.Spec()
	rs, err := e.Grid().Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := &sweepResult{sweep: s, cells: make([]grid.CellResult, len(spec.Cells)), db: e.World.ASDB()}
	for i, c := range spec.Cells {
		res.cells[i] = rs.Of(c)
	}
	return res, nil
}

// run executes one sweep and folds its results; the exported Run*Ctx
// harnesses are this with a sweep and a fold named.
func run[T any](ctx context.Context, e *Env, s sweep, fold func(*sweepResult) T) (T, error) {
	rs, err := e.runSweep(ctx, s)
	if err != nil {
		var zero T
		return zero, err
	}
	return fold(rs), nil
}

// SpecOneCell wraps a single ad-hoc run as a one-cell spec, so one-off
// CLI runs (`seedscan run`) share the engine's dedup, checkpointing, and
// resume.
func (e *Env) SpecOneCell(gen string, t grid.Treatment, p proto.Protocol, budget int) grid.Spec {
	return e.sweep(sweep{Name: gen + " on " + string(t), Rows: []row{{Treatment: t}}}, []proto.Protocol{p}, []string{gen}, budget).Spec()
}

// renderRaw prints the sweep's raw matrices, one block per protocol: a
// Hits table then an ASes table, rows as declared and generators as
// columns, under the two given titles (formats taking the protocol).
func (r *sweepResult) renderRaw(hitsTitle, asesTitle string) []string {
	var blocks []string
	for pi, p := range r.Protos {
		table := func(title string, m metric) string {
			return matrix(fmt.Sprintf(title, p), "Dataset", r.labels(), r.Gens, func(ri, gi int) int { return m(r.At(ri, pi, gi)) })
		}
		blocks = append(blocks, table(hitsTitle, metricHits)+"\n"+table(asesTitle, metricASes))
	}
	return blocks
}

package grid

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"seedscan/internal/memo"
	"seedscan/internal/telemetry"
)

// Config assembles an Engine.
type Config struct {
	// Fingerprint is the environment's content address (see Cell.Key).
	Fingerprint string
	// Store checkpoints completed cells; nil disables persistence (the
	// engine still memoizes completed cells in-process, which is what
	// deduplicates cells across specs).
	Store Store
	// Workers bounds the cell fan-out (default: GOMAXPROCS, capped at
	// memo.FreeListLen, 8, so each concurrent cell finds recycled scratch).
	// Cells are the unit of parallelism: model mining inside a cell is
	// serial, so the default gives every core a cell.
	Workers int
	// Telemetry receives grid.cells.* counters and per-spec progress
	// events; nil gets a silent tracer.
	Telemetry *telemetry.Tracer
	// Exec runs one cell. It must be safe for concurrent calls and
	// deterministic: the engine's dedup and resume guarantees are only as
	// good as the executor's reproducibility.
	Exec func(ctx context.Context, c Cell) (CellResult, error)
}

// Engine schedules cells: one merged worklist across every requested
// spec, deduplicated by cell identity, checkpointed through the Store.
type Engine struct {
	cfg Config
	tr  *telemetry.Tracer
	// cells is the in-process memo of completed cells, keyed by Cell.ID:
	// it is what deduplicates cells across specs and concurrent Runs.
	cells memo.Map[string, CellResult]
}

// NewEngine builds an engine. Config.Exec is required.
func NewEngine(cfg Config) *Engine {
	if cfg.Exec == nil {
		panic("grid: NewEngine requires Config.Exec")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), memo.FreeListLen)
	}
	tr := cfg.Telemetry
	if tr == nil {
		tr = telemetry.NewTracer(nil)
	}
	return &Engine{cfg: cfg, tr: tr}
}

// Results holds one Run's cell results, addressed by cell identity.
type Results struct {
	cells map[string]CellResult
}

// Of returns the result of cell c (the zero CellResult if c was not part
// of the run).
func (r Results) Of(c Cell) CellResult { return r.cells[c.ID()] }

// Len reports the number of unique cells in the run.
func (r Results) Len() int { return len(r.cells) }

// Run executes every cell of spec and returns their results. Duplicate
// cells — within the spec, across concurrent Run calls, or already
// completed earlier in the process — execute exactly once
// (grid.cells.deduped counts the skips); cells checkpointed in the Store
// are loaded instead of executed (grid.cells.resumed); everything else
// runs through Config.Exec on up to Config.Workers goroutines
// (grid.cells.run). The first error cancels the remaining cells and is
// returned; cancelled or failed cells are not checkpointed and will be
// retried by a later Run.
func (e *Engine) Run(ctx context.Context, spec Spec) (Results, error) {
	reg := e.tr.Registry()
	reg.Counter("grid.cells.planned").Add(int64(len(spec.Cells)))

	seen := make(map[string]struct{}, len(spec.Cells))
	unique := make([]Cell, 0, len(spec.Cells))
	for _, c := range spec.Cells {
		id := c.ID()
		if _, ok := seen[id]; ok {
			reg.Counter("grid.cells.deduped").Inc()
			continue
		}
		seen[id] = struct{}{}
		unique = append(unique, c)
	}

	results := make(map[string]CellResult, len(unique))
	var resMu sync.Mutex
	var done atomic.Int64
	// Cell work carries the profiler label layer=grid.cell (runtime/pprof):
	// each worker switches to it before a cell, and a TGA run inside
	// relabels its own layers and switches back.
	ctx = pprof.WithLabels(ctx, pprof.Labels("layer", "grid.cell"))
	err := RunParallel(ctx, e.cfg.Workers, len(unique), func(ctx context.Context, i int) error {
		c := unique[i]
		pprof.SetGoroutineLabels(ctx)
		r, err := e.do(ctx, c)
		if err != nil {
			return err
		}
		resMu.Lock()
		results[c.ID()] = r
		resMu.Unlock()
		e.tr.Progress(spec.Name, int(done.Add(1)), len(unique))
		return nil
	})
	if err != nil {
		return Results{}, err
	}
	return Results{cells: results}, nil
}

// do resolves one cell: join an in-flight or completed execution, load
// a checkpoint, or execute and checkpoint. A failed or cancelled cell is
// not kept, so a waiter whose own ctx is still live retries it (see
// memo.Map.Do).
func (e *Engine) do(ctx context.Context, c Cell) (CellResult, error) {
	reg := e.tr.Registry()
	res, shared, err := e.cells.Do(ctx, c.ID(), func() (CellResult, error) {
		key := c.Key(e.cfg.Fingerprint)
		st := e.cfg.Store
		if st != nil {
			if r, ok := st.Get(key); ok {
				reg.Counter("grid.cells.resumed").Inc()
				return r, nil
			}
		}
		res, err := e.cfg.Exec(ctx, c)
		if err != nil {
			return CellResult{}, err
		}
		reg.Counter("grid.cells.run").Inc()
		if st != nil {
			if perr := st.Put(key, c, res); perr != nil {
				// The run itself succeeded; losing one checkpoint only
				// costs a re-run on resume.
				reg.Counter("grid.store.put_errors").Inc()
			}
		}
		return res, nil
	})
	if shared {
		reg.Counter("grid.cells.deduped").Inc()
	}
	return res, err
}

// RunParallel executes fn(0..n-1) on up to `workers` goroutines (at
// least one) and returns the first error. Every fn receives a grid
// context derived from ctx that is cancelled as soon as any sibling fails,
// so long-running siblings stop promptly instead of finishing doomed work;
// no further indices are dispatched after cancellation either. The
// parent's ctx.Err() is returned if it cut the grid short.
func RunParallel(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers = min(max(workers, 1), n)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		err  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if gctx.Err() != nil {
					return
				}
				mu.Lock()
				if err != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if e := fn(gctx, i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

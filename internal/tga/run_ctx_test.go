package tga

import (
	"context"
	"errors"
	"sync"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// cancellingProber cancels the run after a fixed number of scan calls.
type cancellingProber struct {
	cancel context.CancelFunc
	after  int
	calls  int
}

func (p *cancellingProber) Scan(ts []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	p.calls++
	if p.calls >= p.after {
		p.cancel()
	}
	out := make([]scanner.Result, len(ts))
	for i, a := range ts {
		out[i] = scanner.Result{Addr: a, Proto: pr}
	}
	return out
}

// ScanActive completes the shared scanner.Prober surface; these tests
// exercise only Scan.
func (p *cancellingProber) ScanActive(ts []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	return nil
}

func manyAddrs(n int) []ipaddr.Addr {
	base := ipaddr.MustParse("2001:db8::")
	out := make([]ipaddr.Addr, n)
	for i := range out {
		out[i] = base.AddLo(uint64(i))
	}
	return out
}

func TestRunContextCancelsBetweenBatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := &staticGen{addrs: manyAddrs(1000)}
	pr := &cancellingProber{cancel: cancel, after: 2}
	res, err := RunContext(ctx, g, nil, RunConfig{Budget: 1000, BatchSize: 100, Prober: pr})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Generated != 200 {
		t.Fatalf("partial result generated = %v, want 200 (2 batches)", res)
	}
	if pr.calls != 2 {
		t.Fatalf("prober calls = %d, want 2", pr.calls)
	}
}

// ctxProber verifies the driver routes through ScanContext when offered.
type ctxProber struct {
	nullProber
	ctxCalls int
}

func (p *ctxProber) ScanContext(ctx context.Context, ts []ipaddr.Addr, pr proto.Protocol) ([]scanner.Result, error) {
	p.ctxCalls++
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.Scan(ts, pr), nil
}

// ScanActiveContext completes the shared scanner.ContextProber surface;
// the driver routes its scans through ScanContext.
func (p *ctxProber) ScanActiveContext(ctx context.Context, ts []ipaddr.Addr, pr proto.Protocol) ([]ipaddr.Addr, error) {
	return nil, ctx.Err()
}

func TestRunContextPrefersContextProber(t *testing.T) {
	g := &staticGen{addrs: manyAddrs(64)}
	pr := &ctxProber{}
	if _, err := RunContext(context.Background(), g, nil,
		RunConfig{Budget: 64, BatchSize: 16, Prober: pr}); err != nil {
		t.Fatal(err)
	}
	if pr.ctxCalls == 0 {
		t.Fatal("ScanContext never used")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := &staticGen{addrs: manyAddrs(10)}
	res, err := RunContext(ctx, g, nil, RunConfig{Budget: 10, Prober: &nullProber{}})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if res.Generated != 0 {
		t.Fatalf("generated = %d", res.Generated)
	}
}

// collectSink gathers events for span assertions.
type collectSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *collectSink) Emit(ev telemetry.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *collectSink) Close() error { return nil }

// offlineGen is staticGen reporting itself offline, so the driver skips
// its feedback stage.
type offlineGen struct{ *staticGen }

func (offlineGen) Online() bool { return false }

// keepAll is a dealiaser that flags nothing.
type keepAll struct{}

func (keepAll) Split(addrs []ipaddr.Addr) (clean, aliased []ipaddr.Addr) { return addrs, nil }

func TestRunContextEmitsNestedStageSpans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      Generator
		stages []string
	}{
		{"online", &staticGen{addrs: manyAddrs(256)}, []string{"generate", "scan", "dealias", "feedback"}},
		{"offline", offlineGen{&staticGen{addrs: manyAddrs(256)}}, []string{"generate", "scan", "dealias"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &collectSink{}
			tr := telemetry.NewTracer(nil, sink)
			ctx := telemetry.NewContext(context.Background(), tr)
			if _, err := RunContext(ctx, tc.g, nil, RunConfig{
				Budget: 256, BatchSize: 16, Prober: &nullProber{}, Dealiaser: keepAll{},
			}); err != nil {
				t.Fatal(err)
			}

			starts := map[string][]telemetry.Event{}
			for _, ev := range sink.events {
				if ev.Type == "span_start" {
					starts[ev.Name] = append(starts[ev.Name], ev)
				}
			}
			if len(starts["run"]) != 1 {
				t.Fatalf("run spans = %d", len(starts["run"]))
			}
			if len(starts["batch"]) < 2 {
				t.Fatalf("batch spans = %d, want >= 2", len(starts["batch"]))
			}
			runID := starts["run"][0].Span
			batchIDs := map[int64]bool{}
			for _, b := range starts["batch"] {
				if b.Parent != runID {
					t.Fatalf("batch parent = %d, want run %d", b.Parent, runID)
				}
				batchIDs[b.Span] = true
			}
			for _, stage := range tc.stages {
				if len(starts[stage]) == 0 {
					t.Fatalf("no %s spans", stage)
				}
				for _, ev := range starts[stage] {
					if !batchIDs[ev.Parent] {
						t.Fatalf("%s span not nested under a batch", stage)
					}
				}
			}

			// In emission order, a batch ends before the next one starts,
			// and its stage spans end before it does.
			var open int64                 // the batch currently open, 0 if none
			children := map[int64]string{} // open stage spans of that batch
			for _, ev := range sink.events {
				switch {
				case ev.Name == "batch" && ev.Type == "span_start":
					if open != 0 {
						t.Fatalf("batch %d started while batch %d was open", ev.Span, open)
					}
					open = ev.Span
				case ev.Name == "batch" && ev.Type == "span_end":
					if len(children) != 0 {
						t.Fatalf("batch %d ended before its stages %v", ev.Span, children)
					}
					open = 0
				case batchIDs[ev.Parent] && ev.Type == "span_start":
					if ev.Parent != open {
						t.Fatalf("%s span started under batch %d while batch %d was open", ev.Name, ev.Parent, open)
					}
					children[ev.Span] = ev.Name
				case batchIDs[ev.Parent] && ev.Type == "span_end":
					delete(children, ev.Span)
				}
			}

			// tga.* counters accumulate in the tracer's registry.
			if got := tr.Registry().Counter("tga.generated").Load(); got != 256 {
				t.Fatalf("tga.generated = %d", got)
			}
			if tr.Registry().Counter("tga.batches").Load() < 2 {
				t.Fatal("tga.batches not counted")
			}
		})
	}
}

// sharingGen is staticGen taking the run's candidate set: it records
// every ShareCandidates call, and Init fails when initErr is set.
type sharingGen struct {
	*staticGen
	initErr error
	shares  []*ipaddr.Set
}

func (g *sharingGen) Init([]ipaddr.Addr) error        { return g.initErr }
func (g *sharingGen) ShareCandidates(set *ipaddr.Set) { g.shares = append(g.shares, set) }

// TestRunTakesTheSetBack checks the lend and the take-back on every way
// out of a run: the generator is lent a set once, after init, and the
// driver takes it back with ShareCandidates(nil) whether the budget was
// reached, the generator proposed nothing, it went idle proposing seeds
// alone, or ctx was cancelled mid-scan. A run whose init fails lends
// nothing.
func TestRunTakesTheSetBack(t *testing.T) {
	seeds := manyAddrs(200)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name    string
		g       *sharingGen
		seeds   []ipaddr.Addr
		prober  scanner.Prober
		wantErr bool
		// exhausted: the run ends exhausted; left: with proposals left.
		exhausted, left bool
	}{
		{name: "budget", g: &sharingGen{staticGen: &staticGen{addrs: manyAddrs(1000)}}, left: true},
		{name: "empty batch", g: &sharingGen{staticGen: &staticGen{addrs: manyAddrs(10)}}, exhausted: true},
		{name: "idle", g: &sharingGen{staticGen: &staticGen{addrs: seeds}}, seeds: seeds, exhausted: true, left: true},
		{name: "cancelled", g: &sharingGen{staticGen: &staticGen{addrs: manyAddrs(1000)}},
			prober: &cancellingProber{cancel: cancel, after: 2}, wantErr: true, left: true},
		{name: "init fails", g: &sharingGen{staticGen: &staticGen{}, initErr: errors.New("no model")}, wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.prober == nil {
				c.prober = &nullProber{}
			}
			res, err := RunContext(ctx, c.g, c.seeds, RunConfig{
				Budget: 100, BatchSize: 1, Prober: c.prober, ExcludeSeeds: true,
			})
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if res != nil && (res.Exhausted != c.exhausted || (c.g.i < len(c.g.addrs)) != c.left) {
				t.Fatalf("exhausted = %v with %d of %d proposed, want exhausted %v, proposals left %v",
					res.Exhausted, c.g.i, len(c.g.addrs), c.exhausted, c.left)
			}
			if c.g.initErr != nil {
				if len(c.g.shares) != 0 {
					t.Fatalf("a run whose init failed shared %d times", len(c.g.shares))
				}
				return
			}
			if len(c.g.shares) != 2 || c.g.shares[0] == nil || c.g.shares[1] != nil {
				t.Fatalf("ShareCandidates calls %v, want the run's set, then nil", c.g.shares)
			}
		})
	}
}

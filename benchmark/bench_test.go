package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	// A percentile needs ten samples beyond it: p90 from 100 samples on,
	// p99 from 1,000, p99.9 from 10,000.
	cases := []struct {
		n        int
		p        float64
		reported bool
	}{
		{99, 0.90, false}, {100, 0.90, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9_999, 0.999, false}, {10_000, 0.999, true},
	}
	for _, c := range cases {
		if got := resolved(c.n, c.p); got != c.reported {
			t.Errorf("p%v of %d samples: reported=%v, want %v", 100*c.p, c.n, got, c.reported)
		}
	}
	if v := percentileIfResolved(ramp(999), 0.99); v != 0 {
		t.Errorf("p99 of 999 samples has under ten samples beyond it, want 0, got %v", v)
	}
	if v := percentileIfResolved(ramp(1001), 0.99); v != 990 {
		t.Errorf("p99 of 0..1000 = %v, want 990", v)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer("test")
	add := func(parent int, name string, start, end int64) int {
		tr.spans = append(tr.spans, &Span{ID: len(tr.spans) + 1, Parent: parent, Name: name, StartNs: start, EndNs: end, tr: tr})
		return len(tr.spans)
	}
	root := add(0, "root", 0, 100)
	add(root, "child", 10, 30)
	mid := add(root, "child", 20, 50) // overlaps the first: the union covers 10..50
	add(root, "child", 60, 70)
	add(mid, "leaf", 25, 35)
	tr.folds[foldKey{root, "batch"}] = &fold{Count: 3, TotalNs: 5, SelfNs: 5, OuterNs: 5}

	rows := tr.waterfall()
	got := make(map[string]layerTime)
	for _, r := range rows {
		got[r.Name] = r
	}
	// root: 100 − (40 + 10 covered by children) − 5 folded = 45.
	if r := got["root"]; r.SelfNs != 45 || r.TotalNs != 100 {
		t.Errorf("root self %d total %d, want 45 and 100", r.SelfNs, r.TotalNs)
	}
	// children: 20 + (30 − 10 under the leaf) + 10 = 50 self, 60 total.
	if r := got["child"]; r.SelfNs != 50 || r.TotalNs != 60 || r.Count != 3 {
		t.Errorf("child self %d total %d count %d, want 50, 60, 3", r.SelfNs, r.TotalNs, r.Count)
	}
	if r := got["batch"]; r.SelfNs != 5 || r.Count != 3 {
		t.Errorf("folded batch self %d count %d, want 5 and 3", r.SelfNs, r.Count)
	}
	if got, want := selfMs(rows, "leaf"), 10.0/1e6; got != want {
		t.Errorf("leaf self %v ms, want %v", got, want)
	}
}

func TestTracerFoldsPastCap(t *testing.T) {
	tr := newTracer("test")
	root := tr.Push("root")
	for i := 0; i < maxSpans+10; i++ {
		tr.Push("batch").Pop()
	}
	root.Pop()
	if len(tr.spans) != maxSpans {
		t.Fatalf("%d spans recorded, want the cap %d", len(tr.spans), maxSpans)
	}
	f := tr.folds[foldKey{root.ID, "batch"}]
	if f == nil || f.Count != 11 {
		t.Fatalf("folded counter %+v, want 11 batches under the root", f)
	}
	if tr.cur != nil {
		t.Errorf("innermost span %q left open", tr.cur.Name)
	}
}

// A span that folds may have children: their time is its, not also the
// recorded ancestor's, and is counted once.
func TestFoldedSpansNest(t *testing.T) {
	tr := newTracer("test")
	root := tr.Push("root")
	for i := 0; i < maxSpans; i++ {
		tr.Push("batch").Pop()
	}
	for i := 0; i < 3; i++ {
		scan := tr.Push("scan")
		for j := 0; j < 2; j++ {
			link := tr.Push("link")
			time.Sleep(time.Millisecond)
			link.Pop()
		}
		scan.Pop()
	}
	root.Pop()

	scan, link := tr.folds[foldKey{root.ID, "scan"}], tr.folds[foldKey{root.ID, "link"}]
	if scan == nil || link == nil || scan.Count != 3 || link.Count != 6 {
		t.Fatalf("folded scan %+v, link %+v; want 3 and 6 under the root", scan, link)
	}
	if scan.SelfNs != scan.TotalNs-link.TotalNs || link.OuterNs != 0 || scan.OuterNs != scan.TotalNs {
		t.Errorf("scan %+v, link %+v: the links' time belongs to the scans, the scans' to the root", scan, link)
	}
	var self int64
	for _, r := range tr.waterfall() {
		self += r.SelfNs
	}
	if self != tr.rootNs() {
		t.Errorf("self times add up to %d ns, the root span took %d", self, tr.rootNs())
	}
}

// stubEnd serves a handler with a known service time on the loopback.
func stubEnd(t *testing.T, service func(n int64) time.Duration) (*httpEnd, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	end, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service(served.Add(1)))
		w.Write([]byte("ok"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(end.close)
	return end, &served
}

func TestClosedLoopGenerator(t *testing.T) {
	const service = 2 * time.Millisecond
	end, served := stubEnd(t, func(int64) time.Duration { return service })
	conns := []*http.Client{newConn(), newConn()}
	defer closeConns(conns)

	const n = 40
	var seen [n]atomic.Int32
	bufs := newBufs(len(conns))
	lat, wall, failed, err := closedLoop(conns, n, func(c *http.Client, conn, i int) error {
		seen[i].Add(1)
		_, err := fetch(c, http.MethodGet, end.base+"/", nil, &bufs[conn])
		return err
	})
	if failed != 0 || err != nil {
		t.Fatalf("%d requests failed: %v", failed, err)
	}
	if served.Load() != n {
		t.Errorf("handler served %d requests, want %d", served.Load(), n)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Errorf("request %d issued %d times", i, seen[i].Load())
		}
	}
	for i, ns := range lat {
		if time.Duration(ns) < service {
			t.Errorf("request %d took %v, under the %v service time", i, time.Duration(ns), service)
		}
	}
	// A closed loop never has more than one request per connection in
	// flight, so n requests cannot finish faster than n/conns service times.
	if floor := service * n / time.Duration(len(conns)); wall < floor {
		t.Errorf("batch took %v, under the closed-loop floor %v", wall, floor)
	}
}

func TestPacedGenerator(t *testing.T) {
	const service = time.Millisecond
	const stall = 40 * time.Millisecond
	end, _ := stubEnd(t, func(n int64) time.Duration {
		if n == 6 {
			return stall // one slow reply, early in the run
		}
		return service
	})
	conn := newConn()
	defer conn.CloseIdleConnections()
	bufs := newBufs(1)

	const rate = 200 // one request every 5 ms
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res := paced(ctx, rate, func(int) error {
		_, err := fetch(conn, http.MethodGet, end.base+"/", nil, &bufs[0])
		return err
	})
	if res.Failed != 0 {
		t.Fatalf("%d requests failed: %v", res.Failed, res.FirstErr)
	}
	// On schedule 300 ms hold 60 requests; the generator may run late but
	// never early, and it catches up after the stall.
	if n := len(res.LatNs); n < 30 || n > 61 {
		t.Errorf("%d requests in 300 ms at %d/s", n, rate)
	}
	for i, ns := range res.LatNs {
		if time.Duration(ns) < service {
			t.Errorf("request %d: latency %v from due time, under the service time", i, time.Duration(ns))
		}
		if res.LateNs[i] < 0 {
			t.Errorf("request %d sent %v before it was due", i, time.Duration(-res.LateNs[i]))
		}
	}
	// The request queued behind the stalled one is charged the wait: it
	// was due 5 ms into a 40 ms stall.
	if len(res.LatNs) > 6 {
		if got := time.Duration(res.LatNs[6]); got < stall/2 {
			t.Errorf("request behind the stall: latency %v from due time, want the queueing (≥ %v) counted", got, stall/2)
		}
		if got := time.Duration(res.LateNs[6]); got < stall/2 {
			t.Errorf("request behind the stall: generator lateness %v, want ≥ %v", got, stall/2)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\ncode has\n%v", e2e, endToEnd)
	}
	var layers []metricDef
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's list (%d against %d entries)", len(layers), len(perLayer))
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs all five workloads at the smoke size, untraced and
// traced, and holds each run's metric names against BENCHMARK.json. It
// then repeats two of them to check that equal seeds give equal outputs.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	declared := map[bool][]string{}
	for _, m := range f.EndToEnd {
		declared[false] = append(declared[false], m.Name)
	}
	for _, m := range f.PerLayer {
		declared[true] = append(declared[true], m.Name)
	}
	sort.Strings(declared[false])
	sort.Strings(declared[true])

	dir := t.TempDir()
	run := func(name string, traced bool, seed uint64) *RunRecord {
		t.Helper()
		rec, err := runOne(runConfig{Workload: name, Seed: seed, Seconds: 0.2, Trace: traced, Size: smokeSize, OutDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Fatalf("%s trace=%v: %d of %d operations failed: %v", name, traced, rec.Failed, rec.Attempted, rec.Notes)
		}
		return rec
	}
	first := make(map[string]*RunRecord)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rec := run(name, traced, 42)
			if got := sortedKeys(rec.Metrics); !reflect.DeepEqual(got, declared[traced]) {
				t.Errorf("%s trace=%v emits %v\nBENCHMARK.json declares %v", name, traced, got, declared[traced])
			}
			if !traced {
				first[name] = rec
				for metric, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, metric, m.Value)
					}
				}
			} else if _, err := os.Stat(dir + "/trace-" + name + ".jsonl"); err != nil {
				t.Errorf("%s: traced run left no trace file: %v", name, err)
			}
		}
	}
	for _, name := range []string{"repro_icmp", "scan_sharded"} {
		again := run(name, false, 42)
		if !reflect.DeepEqual(again.Digests, first[name].Digests) {
			t.Errorf("%s: a second run with the same seed produced different outputs", name)
		}
		other := run(name, false, 7)
		if reflect.DeepEqual(other.Digests, first[name].Digests) {
			t.Errorf("%s: seeds 42 and 7 produced the same outputs; the seed does not reach the inputs", name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"work_per_s", "1/s", "higher", 0.10}
	sum := func(vals ...float64) Summary {
		lo, hi := minMax(vals)
		return Summary{Median: median(vals), Min: lo, Max: hi, Values: vals}
	}
	cases := []struct {
		name string
		def  metricDef
		a, b Summary
		want string
	}{
		{"same", lower, sum(1.00, 1.01, 1.02), sum(1.01, 1.02, 1.03), "within bound"},
		{"slower", lower, sum(1.00, 1.01, 1.02), sum(1.20, 1.21, 1.22), "REGRESSION"},
		{"faster", lower, sum(1.00, 1.01, 1.02), sum(0.80, 0.81, 0.82), "improved"},
		{"less throughput", higher, sum(100, 101, 102), sum(80, 81, 82), "REGRESSION"},
		{"more throughput", higher, sum(100, 101, 102), sum(120, 121, 122), "improved"},
		{"noisy and overlapping", lower, sum(0.90, 1.00, 1.15), sum(1.00, 1.12, 1.20), "unresolved: a side's own spread exceeds the bound"},
		{"noisy but every run worse", lower, sum(0.90, 1.00, 1.05), sum(1.30, 1.40, 1.60), "REGRESSION"},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestExpectedCoversEveryWorkload(t *testing.T) {
	table, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, seed := range []string{"42", "7"} {
			if len(table[name][seed]) == 0 {
				t.Errorf("expected.json has no digests for %s seed %s; run -update-expected", name, seed)
			}
		}
	}
}

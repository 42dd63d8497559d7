package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/scanner"
	"seedscan/internal/serve"
)

// lookupLimit is the latency limit of a point lookup. A correct reply
// that arrives later is counted (serve.lookups_over_limit, and a note on
// the run) but is not a failed operation: on this kind of shared VM a
// stall of that length hits about one request in 400,000 whatever the
// code under test does (seen at the seed commit: 50.1 ms), and a workload
// must be one on which no operation fails.
const lookupLimit = 50 * time.Millisecond

// query is one address of the mix with the answer the snapshot holds.
type query struct {
	addr      ipaddr.Addr
	url       string
	found     bool
	resp      bool
	protocols []string
}

// answer is the part of a lookup reply the benchmark checks.
type answer struct {
	Generation uint64   `json:"generation"`
	Found      bool     `json:"found"`
	Responsive bool     `json:"responsive"`
	Protocols  []string `json:"protocols"`
}

func (q *query) expect(db *hitlistdb.DB) {
	rec, ok := db.Lookup(q.addr)
	q.found, q.resp, q.protocols = ok, ok && rec.Responsive, nil
	if ok {
		for _, p := range rec.Protocols() {
			q.protocols = append(q.protocols, p.String())
		}
	}
}

func (q *query) check(a answer) error {
	if a.Found != q.found || a.Responsive != q.resp || len(a.Protocols) != len(q.protocols) {
		return fmt.Errorf("lookup %s: got found=%v responsive=%v %v, snapshot holds found=%v responsive=%v %v",
			q.addr, a.Found, a.Responsive, a.Protocols, q.found, q.resp, q.protocols)
	}
	for i := range a.Protocols {
		if a.Protocols[i] != q.protocols[i] {
			return fmt.Errorf("lookup %s: protocols %v, snapshot holds %v", q.addr, a.Protocols, q.protocols)
		}
	}
	return nil
}

// queryMix draws n addresses: seven in eight from the records, strided so
// they span the whole sorted range, one in eight from a prefix the world
// does not hold.
func queryMix(records []ipaddr.Addr, n int, seed uint64) []query {
	rng := rand.New(rand.NewSource(int64(seed)))
	offset := rng.Intn(len(records))
	miss := ipaddr.MustParse("2001:db8:ffff::1")
	out := make([]query, n)
	for i := range out {
		if i%8 == 7 {
			out[i].addr = miss.AddLo(uint64(rng.Int63n(1 << 40)))
		} else {
			out[i].addr = records[(offset+i*7919)%len(records)]
		}
	}
	return out
}

// httpEnd is a serve.Server behind a real listener on the loopback.
type httpEnd struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpEnd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &httpEnd{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return e, nil
}

func (e *httpEnd) close() {
	if e == nil {
		return
	}
	_ = e.srv.Close()
	<-e.done
}

// serveWorkload is serve_read: hitlist reads with nothing else running.
//
// Set-up builds a hitlist over the collected seeds, publishes it into a
// hitlistdb.Store and puts serve.Server behind a loopback listener. One
// pass is a closed loop: GOMAXPROCS (min(nproc, 4)) keep-alive
// connections, each waiting for its reply, issue LookupsPerPass
// /v1/lookup requests (7/8 hits across the whole record range, 1/8
// misses), then one connection posts BulkPerPass /v1/bulk batches of
// BulkBatch addresses. Work is addresses answered. Every body is checked
// against DB.Lookup; a reply slower than 50 ms is counted.
type serveWorkload struct {
	cfg runConfig

	fx      *fixture
	dir     string
	store   *hitlistdb.Store
	snap    *hitlist.Snapshot
	server  *serve.Server
	end     *httpEnd
	conns   []*http.Client
	queries []query
	bulk    []byte // the /v1/bulk request body: the first BulkBatch queries

	buildMs   float64
	overLimit atomic.Int64
}

func (s *serveWorkload) Close() {
	closeConns(s.conns)
	s.end.close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	*s = serveWorkload{cfg: s.cfg}
}

func (s *serveWorkload) Setup() error {
	s.fx = buildFixture(s.cfg.Size, s.cfg.Seed)
	sc := scanner.New(s.fx.w.Link(), scanner.WithSecret(s.cfg.Seed))
	svc, err := hitlist.New(hitlist.WithProber(sc), hitlist.WithSeed(s.cfg.Seed))
	if err != nil {
		return err
	}
	start := time.Now()
	if s.snap, err = svc.Build(s.fx.sourceDatasets()...); err != nil {
		return err
	}
	s.buildMs = msSince(start)
	if s.dir, err = os.MkdirTemp(s.cfg.OutDir, "serve-store-"); err != nil {
		return err
	}
	if s.store, err = hitlistdb.OpenStore(s.dir); err != nil {
		return err
	}
	db, err := s.store.Publish(s.snap)
	if err != nil {
		return err
	}
	if s.server, err = serve.New(s.store); err != nil {
		return err
	}
	if s.end, err = listen(s.server); err != nil {
		return err
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		s.conns = append(s.conns, newConn())
	}

	records := s.snap.Responsive.Sorted()
	if len(records) == 0 {
		return fmt.Errorf("hitlist build found no responsive address")
	}
	s.queries = queryMix(records, 8192, s.cfg.Seed)
	raw := make([]string, 0, s.cfg.Size.BulkBatch)
	for i := range s.queries {
		q := &s.queries[i]
		q.expect(db)
		q.url = s.end.base + "/v1/lookup?addr=" + q.addr.String()
		if len(raw) < cap(raw) {
			raw = append(raw, q.addr.String())
		}
	}
	s.bulk, err = json.Marshal(map[string][]string{"addrs": raw})
	return err
}

// lookup performs and checks lookup i on connection conn.
func (s *serveWorkload) lookup(bufs []bytes.Buffer) func(c *http.Client, conn, i int) error {
	return func(c *http.Client, conn, i int) error {
		q := &s.queries[i%len(s.queries)]
		start := time.Now()
		body, err := fetch(c, http.MethodGet, q.url, nil, &bufs[conn])
		if err != nil {
			return err
		}
		if time.Since(start) > lookupLimit {
			s.overLimit.Add(1)
		}
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		return q.check(a)
	}
}

// bulkOnce posts the bulk batch on c and checks every answer.
func (s *serveWorkload) bulkOnce(c *http.Client, buf *bytes.Buffer) error {
	body, err := fetch(c, http.MethodPost, s.end.base+"/v1/bulk", s.bulk, buf)
	if err != nil {
		return err
	}
	var resp struct {
		Results []answer `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	n := s.cfg.Size.BulkBatch
	if len(resp.Results) != n {
		return fmt.Errorf("bulk: %d results for %d addresses", len(resp.Results), n)
	}
	for i, a := range resp.Results {
		if err := s.queries[i].check(a); err != nil {
			return err
		}
	}
	return nil
}

// servePass is one pass's raw observations.
type servePass struct {
	lookupLatNs []int64
	lookupWall  time.Duration
	bulkNs      []int64
	failed      int64
	firstErr    error
}

func (s *serveWorkload) pass() servePass {
	var p servePass
	bufs := newBufs(len(s.conns))
	p.lookupLatNs, p.lookupWall, p.failed, p.firstErr =
		closedLoop(s.conns, s.cfg.Size.LookupsPerPass, s.lookup(bufs))
	s.bulkPhase(&p, &bufs[0])
	return p
}

// bulkPhase posts the pass's bulk batches on the first connection.
func (s *serveWorkload) bulkPhase(p *servePass, buf *bytes.Buffer) {
	for i := 0; i < s.cfg.Size.BulkPerPass; i++ {
		start := time.Now()
		err := s.bulkOnce(s.conns[0], buf)
		p.bulkNs = append(p.bulkNs, int64(time.Since(start)))
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
	}
}

// answered is the work of one pass: addresses answered.
func (s *serveWorkload) answered() int64 {
	return int64(s.cfg.Size.LookupsPerPass + s.cfg.Size.BulkPerPass*s.cfg.Size.BulkBatch)
}

func (s *serveWorkload) fold(m *measurement, p servePass) {
	m.Attempted += int64(s.cfg.Size.LookupsPerPass + s.cfg.Size.BulkPerPass)
	m.Failed += p.failed
	if p.firstErr != nil && len(m.Notes) < 8 {
		m.Notes = append(m.Notes, p.firstErr.Error())
	}
}

// noteOverLimit records how many correct replies came in late.
func (s *serveWorkload) noteOverLimit(m *measurement) {
	if n := s.overLimit.Load(); n > 0 {
		m.Notes = append(m.Notes, fmt.Sprintf("%d of %d lookups took over %v (counted, not failed)", n, m.Attempted, lookupLimit))
	}
}

// snapshotDigest identifies what was published.
func (s *serveWorkload) snapshotDigest() string {
	return fmt.Sprintf("%d/%d/%s", s.snap.Input, len(s.snap.AliasedPrefixes), setDigest(s.snap.Responsive.Slice()))
}

func (s *serveWorkload) Measure(deadline time.Time) (*measurement, error) {
	m := &measurement{Digests: map[string]string{"snapshot": s.snapshotDigest()}}
	for first := true; first || time.Now().Before(deadline); first = false {
		pm := beginPass()
		p := s.pass()
		m.Passes = append(m.Passes, pm.end(s.answered()))
		s.fold(m, p)
	}
	s.noteOverLimit(m)
	return m, nil
}

func (s *serveWorkload) Trace(tr *Tracer) (map[string]float64, *measurement, error) {
	m := &measurement{Digests: map[string]string{"snapshot": s.snapshotDigest()}}
	v := s.fx.layerValues()
	v["hitlist.build_ms"] = s.buildMs
	db := s.store.Current()
	v["hitlistdb.snapshot_bytes"] = float64(len(db.Bytes()))

	// The store's write and open paths, each on its own.
	root := tr.Push("serve_read.trace")
	if err := storeLayers(tr, s.cfg.OutDir, []*hitlist.Snapshot{s.snap}, v); err != nil {
		return nil, nil, err
	}

	// The read path below HTTP: the snapshot lookup, then the handler
	// answering into an in-memory recorder.
	sp, start := tr.Push("hitlistdb.lookup"), time.Now()
	const rounds = 20
	hits := 0
	for r := 0; r < rounds; r++ {
		for i := range s.queries {
			if _, ok := db.Lookup(s.queries[i].addr); ok {
				hits++
			}
		}
	}
	v["hitlistdb.lookup_ns"] = float64(time.Since(start)) / float64(rounds*len(s.queries))
	sp.Pop()
	buildSink = hits

	reqs := make([]*http.Request, len(s.queries))
	for i := range s.queries {
		reqs[i] = httptest.NewRequest(http.MethodGet, s.queries[i].url, nil)
	}
	sp, start = tr.Push("serve.handler"), time.Now()
	for _, req := range reqs {
		s.server.ServeHTTP(httptest.NewRecorder(), req)
	}
	handlerNs := float64(time.Since(start)) / float64(len(reqs))
	v["serve.handler_ns"] = handlerNs
	sp.Pop()

	// The workload itself, one pass, a span per request.
	bufs := newBufs(len(s.conns))
	plain := s.lookup(bufs)
	pm := beginPass()
	lsp := tr.Push("serve.lookups")
	var p servePass
	p.lookupLatNs, p.lookupWall, p.failed, p.firstErr = closedLoop(s.conns, s.cfg.Size.LookupsPerPass,
		func(c *http.Client, conn, i int) error {
			rs := tr.Start(lsp, "serve.lookup")
			defer rs.End()
			return plain(c, conn, i)
		})
	lsp.Pop()
	bsp := tr.Push("serve.bulk")
	s.bulkPhase(&p, &bufs[0])
	bsp.Pop()
	m.Passes = append(m.Passes, pm.end(s.answered()))
	root.Pop()
	s.fold(m, p)

	s.noteOverLimit(m)
	v["serve.lookups_over_limit"] = float64(s.overLimit.Load())
	lat := sorted(toFloats(p.lookupLatNs, 1e3))
	v["serve.lookup_p50_us"] = quantile(lat, 0.5)
	v["serve.lookup_p99_us"] = percentileIfResolved(lat, 0.99)
	v["serve.lookup_p999_us"] = percentileIfResolved(lat, 0.999)
	v["serve.http_stack_us"] = quantile(lat, 0.5) - handlerNs/1e3
	v["serve.lookups_per_s"] = float64(len(lat)) / p.lookupWall.Seconds()
	bulkMs := toFloats(p.bulkNs, 1e6)
	v["serve.bulk_ms_per_batch"] = median(bulkMs)
	if med := median(bulkMs); med > 0 {
		v["serve.bulk_addrs_per_s"] = float64(s.cfg.Size.BulkBatch) / (med / 1e3)
	}
	return v, m, nil
}

// storeLayers times the snapshot store's paths one at a time over the
// given snapshots, in a scratch store under outDir: Marshal, Publish,
// Open of a written file, and a second handle's Refresh picking each
// generation up. Medians over the snapshots go into v.
func storeLayers(tr *Tracer, outDir string, snaps []*hitlist.Snapshot, v map[string]float64) error {
	dir, err := os.MkdirTemp(outDir, "scratch-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	writer, err := hitlistdb.OpenStore(dir)
	if err != nil {
		return err
	}
	reader, err := hitlistdb.OpenStore(dir)
	if err != nil {
		return err
	}
	timed := func(name string, into *[]float64, fn func() error) error {
		sp, start := tr.Push(name), time.Now()
		err := fn()
		*into = append(*into, msSince(start))
		sp.Pop()
		return err
	}
	var marshal, publish, open, refresh []float64
	for i, snap := range snaps {
		var image []byte
		_ = timed("hitlistdb.marshal", &marshal, func() error {
			image = hitlistdb.Marshal(snap, uint64(i+1))
			return nil
		})
		if err := timed("hitlistdb.publish", &publish, func() error {
			_, err := writer.Publish(snap)
			return err
		}); err != nil {
			return err
		}
		if err := timed("hitlistdb.refresh", &refresh, func() error {
			_, changed, err := reader.Refresh()
			if err == nil && !changed {
				err = fmt.Errorf("refresh did not see generation %d", i+1)
			}
			return err
		}); err != nil {
			return err
		}
		path := filepath.Join(dir, "image.hldb")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			return err
		}
		if err := timed("hitlistdb.open", &open, func() error {
			_, err := hitlistdb.Open(path)
			return err
		}); err != nil {
			return err
		}
	}
	v["hitlistdb.marshal_ms"] = median(marshal)
	v["hitlistdb.publish_ms"] = median(publish)
	v["hitlistdb.open_ms"] = median(open)
	v["hitlistdb.refresh_ms"] = median(refresh)
	return nil
}

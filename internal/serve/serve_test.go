package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seedscan/internal/hitlist"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/world"
)

// startServer publishes one real hitlist build into a fresh store and
// returns an httptest server over it plus the snapshot it serves.
func startServer(t *testing.T, opts ...Option) (*httptest.Server, *hitlist.Snapshot, *hitlistdb.Store) {
	t.Helper()
	srv, snap, st := newServer(t, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, snap, st
}

// newServer is startServer without the listener: the Server itself.
func newServer(t testing.TB, opts ...Option) (*Server, *hitlist.Snapshot, *hitlistdb.Store) {
	t.Helper()
	w := world.New(world.Config{Seed: 42, NumASes: 60, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: 7, Scale: 0.2})
	w.SetEpoch(world.ScanEpoch)
	sc := scanner.New(w.Link(), scanner.WithSecret(3))
	svc, err := hitlist.New(hitlist.WithProber(sc), hitlist.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Build(srcs[seeds.SourceHitlist], srcs[seeds.SourceAddrMiner])
	if err != nil {
		t.Fatal(err)
	}
	snap.Epoch = world.ScanEpoch // as the longitudinal daemon stamps it
	st, err := hitlistdb.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(snap); err != nil {
		t.Fatal(err)
	}
	srv, err := New(st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, snap, st
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestLookupEndpoint(t *testing.T) {
	ts, snap, _ := startServer(t)

	hit := snap.Responsive.Sorted()[0]
	var got lookupResponse
	resp := getJSON(t, ts.URL+"/v1/lookup?addr="+hit.String(), &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(generationHeader) != "1" || got.Generation != 1 {
		t.Fatal("generation missing from response")
	}
	if !got.Found || !got.Responsive {
		t.Fatalf("responsive %v reported %+v", hit, got)
	}
	wantProtos := 0
	for _, p := range proto.All {
		if snap.PerProtocol[p].Contains(hit) {
			wantProtos++
		}
	}
	if len(got.Protocols) != wantProtos {
		t.Fatalf("protocols = %v, want %d entries", got.Protocols, wantProtos)
	}

	// Miss: well-formed answer, found=false.
	var miss lookupResponse
	getJSON(t, ts.URL+"/v1/lookup?addr=2001:db8:ffff::1", &miss)
	if miss.Found {
		t.Fatal("absent address found")
	}

	// An address inside a published aliased prefix reports the alias.
	if len(snap.AliasedPrefixes) > 0 {
		inside := snap.AliasedPrefixes[0].Addr().AddLo(123)
		var al lookupResponse
		getJSON(t, ts.URL+"/v1/lookup?addr="+inside.String(), &al)
		if al.Alias == "" {
			t.Fatalf("no alias reported for %v", inside)
		}
	}

	// Bad input → 400 with a JSON error body.
	var e errorBody
	resp = getJSON(t, ts.URL+"/v1/lookup?addr=not-an-ip", &e)
	if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("bad addr: status %d body %+v", resp.StatusCode, e)
	}
}

func TestBulkEndpoint(t *testing.T) {
	ts, snap, _ := startServer(t, WithMaxBulk(10))

	addrs := snap.Responsive.Sorted()
	req := bulkRequest{Addrs: []string{addrs[0].String(), addrs[1].String(), "2001:db8:ffff::1"}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/bulk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(got.Results) != 3 {
		t.Fatalf("status %d, %d results", resp.StatusCode, len(got.Results))
	}
	if !got.Results[0].Found || !got.Results[1].Found || got.Results[2].Found {
		t.Fatalf("membership wrong: %+v", got.Results)
	}

	// Over the cap → 413.
	big := bulkRequest{Addrs: make([]string, 11)}
	for i := range big.Addrs {
		big.Addrs[i] = "::1"
	}
	body, _ = json.Marshal(big)
	resp, err = http.Post(ts.URL+"/v1/bulk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap status %d", resp.StatusCode)
	}

	// GET is rejected.
	resp, err = http.Get(ts.URL + "/v1/bulk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestBulkBodyIsOneStrictObject(t *testing.T) {
	srv, _, _ := newServer(t, WithMaxBulk(10))
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"well formed", `{"addrs":["2001:db8::1"]}` + " \n", http.StatusOK},
		{"trailing data", `{"addrs":["2001:db8::1"]}garbage`, http.StatusBadRequest},
		{"a second object", `{"addrs":["2001:db8::1"]}{"addrs":[]}`, http.StatusBadRequest},
		{"unknown field", `{"addr":["2001:db8::1"]}`, http.StatusBadRequest},
		{"over the byte cap", `{"addrs":["` + strings.Repeat(" ", maxBulkBody) + `"]}`, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, strings.TrimSpace(rec.Body.String()))
		}
	}
}

func TestPrefixWalkEndpoint(t *testing.T) {
	ts, snap, _ := startServer(t)

	first := snap.Responsive.Sorted()[0]
	p := ipaddr.PrefixFrom(first, 32)
	var got walkResponse
	resp := getJSON(t, ts.URL+"/v1/prefix-walk?prefix="+p.String(), &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) == 0 || got.Truncated {
		t.Fatalf("walk returned %d results, truncated=%v", len(got.Results), got.Truncated)
	}
	for i := 1; i < len(got.Results); i++ {
		a := ipaddr.MustParse(got.Results[i-1].Addr)
		b := ipaddr.MustParse(got.Results[i].Addr)
		if !a.Less(b) {
			t.Fatal("walk results out of order")
		}
	}

	// A limit below the population truncates.
	var lim walkResponse
	getJSON(t, ts.URL+"/v1/prefix-walk?prefix="+p.String()+"&limit=1", &lim)
	if len(lim.Results) != 1 || !lim.Truncated {
		t.Fatalf("limit=1 returned %d results, truncated=%v", len(lim.Results), lim.Truncated)
	}

	var e errorBody
	resp = getJSON(t, ts.URL+"/v1/prefix-walk?prefix=bogus", &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prefix status %d", resp.StatusCode)
	}
}

// TestSnapshotEndpoint downloads the raw image and re-opens it: the
// download path must be byte-faithful enough to mirror a hitlist.
func TestSnapshotEndpoint(t *testing.T) {
	ts, snap, st := startServer(t)

	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, st.Current().Bytes()) {
		t.Fatal("downloaded image differs from the served one")
	}
	db, err := hitlistdb.FromBytes(data)
	if err != nil {
		t.Fatalf("downloaded image does not open: %v", err)
	}
	if db.Snapshot().Responsive.Len() != snap.Responsive.Len() {
		t.Fatal("downloaded snapshot lost records")
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts, snap, _ := startServer(t)
	var got healthzResponse
	resp := getJSON(t, ts.URL+"/v1/healthz", &got)
	if resp.StatusCode != http.StatusOK || !got.OK {
		t.Fatalf("healthz status %d, %+v", resp.StatusCode, got)
	}
	if got.Generation != 1 || got.Addrs == 0 {
		t.Fatalf("healthz payload %+v", got)
	}
	if got.Epoch != world.ScanEpoch {
		t.Fatalf("healthz epoch = %d, want %d", got.Epoch, world.ScanEpoch)
	}
	if got.GenerationAge < 0 || got.GenerationAge > 600 {
		t.Fatalf("healthz generation age = %v seconds", got.GenerationAge)
	}
	_ = snap
}

// TestEmptyStoreServes503 pins the cold-start behavior: a daemon pointed at
// an empty directory is alive (healthz OK) but answers queries with 503.
func TestEmptyStoreServes503(t *testing.T) {
	st, err := hitlistdb.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var h healthzResponse
	resp := getJSON(t, ts.URL+"/v1/healthz", &h)
	if resp.StatusCode != http.StatusOK || !h.OK || h.Generation != 0 {
		t.Fatalf("empty healthz: %d %+v", resp.StatusCode, h)
	}
	for _, path := range []string{"/v1/lookup?addr=::1", "/v1/prefix-walk?prefix=::/0", "/v1/snapshot"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on empty store: status %d", path, resp.StatusCode)
		}
	}
}

func TestServeTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, snap, _ := startServer(t, WithTelemetry(reg))

	var ok lookupResponse
	getJSON(t, ts.URL+"/v1/lookup?addr="+snap.Responsive.Sorted()[0].String(), &ok)
	// Metrics register on first use: one clean lookup names no error
	// counter and nothing for the routes not yet requested.
	names := reg.Snapshot()
	if _, ok := names.Counters["serve.lookup.requests"]; !ok {
		t.Fatal("request counter not registered by a lookup")
	}
	for _, name := range []string{"serve.lookup.errors", "serve.bulk.requests"} {
		if _, ok := names.Counters[name]; ok {
			t.Fatalf("%s registered before first use", name)
		}
	}
	var e errorBody
	getJSON(t, ts.URL+"/v1/lookup?addr=junk", &e)

	if got := reg.Counter("serve.lookup.requests").Load(); got != 2 {
		t.Fatalf("request counter = %d", got)
	}
	if got := reg.Counter("serve.lookup.errors").Load(); got != 1 {
		t.Fatalf("error counter = %d", got)
	}
	if reg.Histogram("serve.lookup.seconds").Stats().Count != 2 {
		t.Fatal("latency histogram not populated")
	}
}

func TestNilStoreRejected(t *testing.T) {
	if _, err := New(nil); err == nil || !strings.Contains(err.Error(), "nil store") {
		t.Fatalf("New(nil) = %v", err)
	}
}

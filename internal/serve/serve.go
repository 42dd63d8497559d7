// Package serve exposes a hitlistdb store over a versioned HTTP+JSON API —
// the "hitlist as a service" daemon behind `seedscan serve`.
//
// Endpoints (all under /v1/):
//
//	GET  /v1/healthz            liveness + current generation
//	GET  /v1/lookup?addr=A      point lookup: responsive? which protocols?
//	POST /v1/bulk               JSON {"addrs": [...]} → per-address answers
//	GET  /v1/prefix-walk?prefix=P[&limit=N]  records inside P, in order
//	GET  /v1/snapshot           raw database image download
//
// Every handler captures the store's current *DB exactly once and answers
// the whole request from it, so a generation swap mid-request can never
// produce a mixed-generation response; the read path takes no locks at all
// (Store.Current is one atomic pointer load). Responses carry the serving
// generation in both the JSON body and an X-Seedscan-Generation header so
// clients can detect swaps across requests.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
)

// apiVersion prefixes every route; bump it only on incompatible response
// changes (additive fields are fine).
const apiVersion = "v1"

// generationHeader carries the serving generation on every response.
const generationHeader = "X-Seedscan-Generation"

// Option configures a Server.
type Option func(*settings)

type settings struct {
	maxBulk int
	maxWalk int
	tele    *telemetry.Registry
}

func defaultSettings() settings {
	return settings{maxBulk: 4096, maxWalk: 65536}
}

// WithMaxBulk caps how many addresses one /v1/bulk request may carry
// (default 4096); larger requests get 413.
func WithMaxBulk(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxBulk = n
		}
	}
}

// WithMaxWalk caps how many records one /v1/prefix-walk response may carry
// (default 65536); walks are truncated at the cap and marked as such.
func WithMaxWalk(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxWalk = n
		}
	}
}

// WithTelemetry wires per-endpoint serve.* counters and latency histograms.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *settings) { s.tele = reg }
}

// Server answers hitlist queries over HTTP from a hitlistdb.Store.
type Server struct {
	store *hitlistdb.Store
	set   settings
	mux   *http.ServeMux
}

// New builds a Server over store.
func New(store *hitlistdb.Store, opts ...Option) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	set := defaultSettings()
	for _, o := range opts {
		o(&set)
	}
	s := &Server{store: store, set: set, mux: http.NewServeMux()}
	s.route("lookup", s.handleLookup)
	s.route("bulk", s.handleBulk)
	s.route("prefix-walk", s.handleWalk)
	s.route("snapshot", s.handleSnapshot)
	s.route("healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route registers one endpoint wrapped with telemetry: a request counter,
// an error counter, and a latency histogram per endpoint name. The names
// are built once here; each metric is still registered on first use.
func (s *Server) route(name string, h func(http.ResponseWriter, *http.Request) int) {
	requests, errs, seconds := "serve."+name+".requests", "serve."+name+".errors", "serve."+name+".seconds"
	s.mux.HandleFunc("/"+apiVersion+"/"+name, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := h(w, r)
		s.set.tele.Counter(requests).Inc()
		if status >= 400 {
			s.set.tele.Counter(errs).Inc()
		}
		s.set.tele.Histogram(seconds).Observe(time.Since(start).Seconds())
	})
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON emits one JSON response and returns the status for telemetry.
func writeJSON(w http.ResponseWriter, status int, gen uint64, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(generationHeader, strconv.FormatUint(gen, 10))
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, gen uint64, format string, args ...any) int {
	return writeJSON(w, status, gen, errorBody{Error: fmt.Sprintf(format, args...)})
}

// current resolves the DB a request will be answered from. Each handler
// calls it exactly once — everything after is served from that immutable
// generation.
func (s *Server) current(w http.ResponseWriter) (*hitlistdb.DB, bool) {
	db := s.store.Current()
	if db == nil {
		writeError(w, http.StatusServiceUnavailable, 0, "no hitlist published yet")
		return nil, false
	}
	return db, true
}

// lookupResult is the per-address answer shared by /v1/lookup and /v1/bulk.
type lookupResult struct {
	Addr       string   `json:"addr"`
	Found      bool     `json:"found"`
	Responsive bool     `json:"responsive,omitempty"`
	Protocols  []string `json:"protocols,omitempty"`
	// Alias names the published aliased prefix covering the address, when
	// one does: the "don't scan this, it's one router" signal.
	Alias string `json:"alias,omitempty"`
}

// lookupOne answers one address against one generation.
func lookupOne(db *hitlistdb.DB, a ipaddr.Addr) lookupResult {
	res := lookupResult{Addr: a.String()}
	if rec, ok := db.Lookup(a); ok {
		res.Found = true
		res.Responsive = rec.Responsive
		for _, p := range rec.Protocols() {
			res.Protocols = append(res.Protocols, p.String())
		}
	}
	if p, ok := db.AliasContaining(a); ok {
		res.Alias = p.String()
	}
	return res
}

// lookupResponse wraps one point lookup.
type lookupResponse struct {
	Generation uint64 `json:"generation"`
	lookupResult
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, 0, "GET only")
	}
	db, ok := s.current(w)
	if !ok {
		return http.StatusServiceUnavailable
	}
	a, err := ipaddr.Parse(r.URL.Query().Get("addr"))
	if err != nil {
		return writeError(w, http.StatusBadRequest, db.Generation(), "bad addr: %v", err)
	}
	return writeJSON(w, http.StatusOK, db.Generation(), lookupResponse{
		Generation:   db.Generation(),
		lookupResult: lookupOne(db, a),
	})
}

// bulkRequest is the /v1/bulk input shape.
type bulkRequest struct {
	Addrs []string `json:"addrs"`
}

// maxBulkBody caps a /v1/bulk body in bytes; a longer one gets 413, as
// too many addresses do.
const maxBulkBody = 4 << 20

// decodeBulk reads a bulkRequest that is the whole body: one JSON object
// with no field but "addrs", followed by nothing but space.
func decodeBulk(body io.Reader) (bulkRequest, error) {
	var req bulkRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request object")
		}
		return req, err
	}
	return req, nil
}

// bulkResponse answers every requested address from one generation.
type bulkResponse struct {
	Generation uint64         `json:"generation"`
	Results    []lookupResult `json:"results"`
}

func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, 0, "POST only")
	}
	db, ok := s.current(w)
	if !ok {
		return http.StatusServiceUnavailable
	}
	req, err := decodeBulk(http.MaxBytesReader(w, r.Body, maxBulkBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		return writeError(w, status, db.Generation(), "bad body: %v", err)
	}
	if len(req.Addrs) > s.set.maxBulk {
		return writeError(w, http.StatusRequestEntityTooLarge, db.Generation(),
			"%d addrs exceeds limit %d", len(req.Addrs), s.set.maxBulk)
	}
	resp := bulkResponse{Generation: db.Generation(), Results: make([]lookupResult, 0, len(req.Addrs))}
	for _, raw := range req.Addrs {
		a, err := ipaddr.Parse(raw)
		if err != nil {
			return writeError(w, http.StatusBadRequest, db.Generation(), "bad addr %q: %v", raw, err)
		}
		resp.Results = append(resp.Results, lookupOne(db, a))
	}
	return writeJSON(w, http.StatusOK, db.Generation(), resp)
}

// walkResponse lists the records inside one prefix, in ascending order.
type walkResponse struct {
	Generation uint64         `json:"generation"`
	Prefix     string         `json:"prefix"`
	Results    []lookupResult `json:"results"`
	// Truncated is set when the walk stopped at the server's record cap;
	// the client should narrow the prefix.
	Truncated bool `json:"truncated,omitempty"`
}

func (s *Server) handleWalk(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, 0, "GET only")
	}
	db, ok := s.current(w)
	if !ok {
		return http.StatusServiceUnavailable
	}
	p, err := ipaddr.ParsePrefix(r.URL.Query().Get("prefix"))
	if err != nil {
		return writeError(w, http.StatusBadRequest, db.Generation(), "bad prefix: %v", err)
	}
	limit := s.set.maxWalk
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return writeError(w, http.StatusBadRequest, db.Generation(), "bad limit %q", raw)
		}
		if n < limit {
			limit = n
		}
	}
	resp := walkResponse{Generation: db.Generation(), Prefix: p.String()}
	db.WalkPrefix(p, func(rec hitlistdb.Record) bool {
		if len(resp.Results) == limit {
			resp.Truncated = true
			return false
		}
		res := lookupResult{Addr: rec.Addr.String(), Found: true, Responsive: rec.Responsive}
		for _, pr := range rec.Protocols() {
			res.Protocols = append(res.Protocols, pr.String())
		}
		resp.Results = append(resp.Results, res)
		return true
	})
	return writeJSON(w, http.StatusOK, db.Generation(), resp)
}

// handleSnapshot streams the raw database image — the bulk-transfer path
// for mirroring a hitlist to another site.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, 0, "GET only")
	}
	db, ok := s.current(w)
	if !ok {
		return http.StatusServiceUnavailable
	}
	data := db.Bytes()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set(generationHeader, strconv.FormatUint(db.Generation(), 10))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return http.StatusOK
}

// healthzResponse reports liveness plus what the daemon is serving. Epoch
// and GenerationAge are the staleness view: which world epoch the served
// build scanned at, and how long ago it was built.
type healthzResponse struct {
	OK         bool      `json:"ok"`
	Generation uint64    `json:"generation"`
	Epoch      int       `json:"epoch"`
	Addrs      int       `json:"addrs"`
	Prefixes   int       `json:"prefixes"`
	BuiltAt    time.Time `json:"built_at"`
	// GenerationAge is seconds since the served build was produced.
	GenerationAge float64  `json:"generation_age_seconds"`
	Protocols     []string `json:"protocols"`
	APIVersions   []string `json:"api_versions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	resp := healthzResponse{OK: true, APIVersions: []string{apiVersion}}
	for _, p := range proto.All {
		resp.Protocols = append(resp.Protocols, p.String())
	}
	gen := uint64(0)
	if db := s.store.Current(); db != nil {
		gen = db.Generation()
		resp.Generation = gen
		resp.Epoch = db.Epoch()
		resp.Addrs = db.AddrCount()
		resp.Prefixes = db.PrefixCount()
		resp.BuiltAt = db.BuiltAt()
		resp.GenerationAge = time.Since(db.BuiltAt()).Seconds()
	}
	return writeJSON(w, http.StatusOK, gen, resp)
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"seedscan/internal/ipaddr"
)

// checkGeneration fails unless the response's generation header names the
// generation its body was answered from.
func checkGeneration(t *testing.T, rec *httptest.ResponseRecorder, body uint64) {
	t.Helper()
	if h := rec.Header().Get(generationHeader); h != strconv.FormatUint(body, 10) {
		t.Fatalf("generation header %q, body generation %d", h, body)
	}
}

// FuzzBulkBody posts arbitrary bodies to /v1/bulk. Every answer is 200,
// 400 or 413; a 200 answers a body that is one JSON request, with one
// result per address, in order, from the generation its header names.
func FuzzBulkBody(f *testing.F) {
	srv, _, _ := newServer(f, WithMaxBulk(64))
	f.Add([]byte(`{"addrs":["2001:db8::1","::1"]}`))
	f.Add([]byte(`{"addrs":["2001:db8::1"]}garbage`))
	f.Add([]byte(`{"addr":["2001:db8::1"]}`))
	f.Add([]byte(`{"Addrs":["2001:0db8::1"],"addrs":null}`))
	f.Add([]byte(`{"addrs":["fe80::1%eth0"]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d", rec.Code)
		}
		var req bulkRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("answered a body that is not one request: %v", err)
		}
		var resp bulkResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		checkGeneration(t, rec, resp.Generation)
		if len(resp.Results) != len(req.Addrs) {
			t.Fatalf("%d results for %d addresses", len(resp.Results), len(req.Addrs))
		}
		for i, raw := range req.Addrs {
			if want := ipaddr.MustParse(raw).String(); resp.Results[i].Addr != want {
				t.Fatalf("result %d answers %s, asked %s", i, resp.Results[i].Addr, want)
			}
		}
	})
}

// FuzzLookupQuery sends arbitrary query strings to /v1/lookup. Every answer
// is 200 or 400; a 200 answers the address asked for, from the generation
// its header names.
func FuzzLookupQuery(f *testing.F) {
	srv, _, _ := newServer(f)
	f.Add("addr=2001:db8::1")
	f.Add("addr=2001:0db8:0::1&addr=::2")
	f.Add("addr=fe80::1%25eth0")
	f.Add("addr=%zz")
	f.Add(";addr=::1")
	f.Add("")
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/lookup", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d", rec.Code)
		}
		var resp lookupResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		checkGeneration(t, rec, resp.Generation)
		if want := ipaddr.MustParse(req.URL.Query().Get("addr")).String(); resp.Addr != want {
			t.Fatalf("answers %s, asked %s", resp.Addr, want)
		}
	})
}

package grid

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
	"seedscan/internal/proto"
)

// fuzzMaxRecord stands in for maxRecordBytes so that a fuzz input can hold
// a line past the replay buffer.
const fuzzMaxRecord = 4096

// FuzzJSONLReplay feeds OpenJSONL a store file of arbitrary bytes — what a
// crash, a full disk or a stray editor leaves behind. Opening never fails or
// panics; what replays is a prefix of the file's leading run of well-formed
// records, all of it unless a line outgrows the buffer; the file is cut to
// exactly that prefix; and a Put after the open survives a reopen beside it.
func FuzzJSONLReplay(f *testing.F) {
	c := cell("6Tree", "full", proto.ICMP, 100)
	clean := filepath.Join(f.TempDir(), "clean.jsonl")
	s, err := OpenJSONL(clean)
	if err != nil {
		f.Fatal(err)
	}
	s.Put(c.Key("fp"), c, CellResult{Outcome: metrics.Outcome{Hits: 2, ASes: 1}, Hits: []ipaddr.Addr{addr(1), addr(2)}})
	s.Put("fp/empty", c, CellResult{})
	s.Close()
	seed, err := os.ReadFile(clean)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle: newline-terminated lines, decoded until one is not a
		// record. ends[k] is the file offset after k records.
		var recs []record
		ends := []int64{0}
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			var rec record
			if json.Unmarshal(rest[:i], &rec) != nil {
				break
			}
			if _, err := rec.result(); err != nil {
				break
			}
			recs = append(recs, rec)
			ends = append(ends, ends[len(ends)-1]+int64(i)+1)
			rest = rest[i+1:]
		}
		fold := func(k int) map[string]CellResult {
			m := make(map[string]CellResult)
			for _, rec := range recs[:k] {
				m[rec.Key], _ = rec.result()
			}
			return m
		}
		check := func(s *JSONLStore, want map[string]CellResult) {
			t.Helper()
			if s.Len() != len(want) {
				t.Fatalf("store holds %d keys, want %d", s.Len(), len(want))
			}
			for k, w := range want {
				if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, w) {
					t.Fatalf("key %q: got %+v (present %v), want %+v", k, got, ok, w)
				}
			}
		}

		path := filepath.Join(t.TempDir(), "cells.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openJSONL(path, fuzzMaxRecord)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for k < len(ends) && ends[k] != int64(len(kept)) {
			k++
		}
		if k == len(ends) || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("open left %d bytes, not a whole-record prefix of the input (record ends %v)", len(kept), ends)
		}
		if k < len(recs) && ends[k+1]-ends[k] <= fuzzMaxRecord/2 {
			t.Fatalf("replay stopped after %d of %d well-formed records, at a %d-byte line", k, len(recs), ends[k+1]-ends[k])
		}
		want := fold(k)
		check(s, want)

		added := CellResult{Outcome: metrics.Outcome{Hits: 1}, Hits: []ipaddr.Addr{addr(7)}}
		if err := s.Put("fuzz/added", c, added); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = openJSONL(path, fuzzMaxRecord)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		want["fuzz/added"] = added
		check(s, want)
	})
}

package grid

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"seedscan/internal/ipaddr"
	"seedscan/internal/metrics"
)

// Store checkpoints completed cells. Get and Put must be safe for
// concurrent use; the engine calls Put once per executed cell, as soon as
// the cell finishes, so a crash or cancel loses at most the cells still
// in flight.
type Store interface {
	// Get returns the checkpointed result for a content-addressed key.
	Get(key string) (CellResult, bool)
	// Put checkpoints one completed cell under its key.
	Put(key string, c Cell, r CellResult) error
}

// record is the JSONL on-disk schema: one completed cell per line. The
// cell parameters ride along for debuggability (the key alone already
// identifies the cell); hits are 32-hex-digit addresses so the stored
// form round-trips exactly.
type record struct {
	Key       string          `json:"key"`
	Gen       string          `json:"gen"`
	Treatment string          `json:"treatment"`
	Proto     string          `json:"proto"`
	Budget    int             `json:"budget"`
	Batch     int             `json:"batch"`
	Outcome   metrics.Outcome `json:"outcome"`
	Hits      []string        `json:"hits"`
}

// JSONLStore is an append-only on-disk Store: one JSON record per
// newline-terminated line. Opening replays the file into memory up to the
// first line that is not a complete record — the torn tail a crash
// mid-append leaves, or corruption — and truncates the file there, so the
// next append starts on a line of its own and a store file is always safe
// to resume from, however many times the writer crashed.
type JSONLStore struct {
	mu   sync.Mutex
	m    map[string]CellResult
	f    *os.File
	path string
}

// maxRecordBytes bounds one record line; a longer one ends replay like
// any other unusable line.
const maxRecordBytes = 1 << 28

// OpenJSONL opens or creates the store file at path and loads every
// complete record in it.
func OpenJSONL(path string) (*JSONLStore, error) { return openJSONL(path, maxRecordBytes) }

// splitRecords is a bufio.SplitFunc yielding newline-terminated lines
// only: an unterminated tail is a torn append, not a record.
func splitRecords(data []byte, _ bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

func openJSONL(path string, maxRecord int) (*JSONLStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("grid: open store: %w", err)
	}
	s := &JSONLStore{m: make(map[string]CellResult), f: f, path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, min(1<<20, maxRecord)), maxRecord)
	sc.Split(splitRecords)
	var good int64 // offset just past the last replayed record
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			// A torn or corrupt line: everything before it is intact,
			// everything from here on is unusable — stop replaying.
			break
		}
		res, err := rec.result()
		if err != nil {
			break
		}
		s.m[rec.Key] = res
		good += int64(len(sc.Bytes())) + 1
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		f.Close()
		return nil, fmt.Errorf("grid: replay store %s: %w", path, err)
	}
	// Appending after an unusable line would glue the next record onto it
	// and hide every later checkpoint from the next open; cut it off.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("grid: truncate store %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("grid: seek store %s: %w", path, err)
	}
	return s, nil
}

// Get implements Store.
func (s *JSONLStore) Get(key string) (CellResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

// Put implements Store: appends one record and syncs it, so a completed
// cell survives anything short of disk failure.
func (s *JSONLStore) Put(key string, c Cell, r CellResult) error {
	rec := record{
		Key:       key,
		Gen:       c.Gen,
		Treatment: string(c.Treatment),
		Proto:     c.Proto.String(),
		Budget:    c.Budget,
		Batch:     c.BatchSize,
		Outcome:   r.Outcome,
		Hits:      make([]string, len(r.Hits)),
	}
	for i, a := range r.Hits {
		rec.Hits[i] = a.FullHex()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("grid: append store %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("grid: sync store %s: %w", s.path, err)
	}
	s.m[key] = r
	return nil
}

// Len reports the number of checkpointed cells.
func (s *JSONLStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Close flushes and releases the store file.
func (s *JSONLStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// result decodes the record's hit list back into addresses.
func (r *record) result() (CellResult, error) {
	res := CellResult{Outcome: r.Outcome}
	if len(r.Hits) > 0 {
		res.Hits = make([]ipaddr.Addr, len(r.Hits))
		for i, h := range r.Hits {
			b, err := hex.DecodeString(h)
			if err != nil || len(b) != 16 {
				return CellResult{}, fmt.Errorf("grid: bad hit %q", h)
			}
			var a16 [16]byte
			copy(a16[:], b)
			res.Hits[i] = ipaddr.AddrFrom16(a16)
		}
	}
	return res, nil
}

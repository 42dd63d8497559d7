package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// JSONLSink writes one JSON object per event to a writer — the trace
// format behind the CLIs' -trace flag. Events from concurrent goroutines
// are serialized; output is line-buffered and flushed on Close.
type JSONLSink struct {
	mu    sync.Mutex
	buf   *bufio.Writer
	owned io.Closer // closed by Close when the sink opened the file itself
}

// NewJSONLSink wraps an existing writer. The caller keeps ownership of w;
// Close flushes but does not close it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{buf: bufio.NewWriter(w)}
}

// CreateJSONLFile creates (truncating) a trace file owned by the sink.
func CreateJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create trace: %w", err)
	}
	return &JSONLSink{buf: bufio.NewWriter(f), owned: f}, nil
}

// Emit writes one event line. Marshalling errors are swallowed: telemetry
// must never fail the pipeline it observes.
func (s *JSONLSink) Emit(ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.buf.Write(b)
	s.buf.WriteByte('\n')
	s.mu.Unlock()
}

// Close flushes buffered lines and closes the file if the sink owns one.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.buf.Flush()
	if s.owned != nil {
		if cerr := s.owned.Close(); err == nil {
			err = cerr
		}
		s.owned = nil
	}
	return err
}

// ReadEvents parses a JSONL trace back into events — the read half of the
// round-trip, used by tests and trace tooling. Blank lines are skipped; an
// error names the line it is on, counting from 1, blank lines included.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return out, fmt.Errorf("telemetry: bad trace line %d: %w", n, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

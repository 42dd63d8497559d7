package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the in-memory trace. Past it, new spans stop being
// recorded one by one and fold into a counter per (nearest recorded
// ancestor, name), so a flood's tens of thousands of link batches cannot
// grow the trace without limit. A folded span still nests: its children
// (folded too, being later) are taken off its self time, and only the
// outermost folded spans are taken off the recorded ancestor's.
const maxSpans = 100_000

// Span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span; a folded span's is its nearest recorded ancestor
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Run     string `json:"run"`

	tr      *Tracer
	up      *Span // the span it was opened under
	folded  bool
	childNs int64 // folded spans only: what the spans opened under it took
}

// foldKey addresses the counter that absorbs spans past maxSpans.
type foldKey struct {
	parent int // the nearest recorded ancestor
	name   string
}

// fold sums the folded spans of one key. SelfNs leaves out what their own
// children took; OuterNs counts only those opened directly under the
// recorded ancestor, which is what that ancestor's self time loses.
type fold struct {
	Count   int64
	TotalNs int64
	SelfNs  int64
	OuterNs int64
}

// Tracer records the benchmark's own spans: every wrapper around a call
// into a layer opens one. A nil *Tracer records nothing, so wrappers stay
// in place on untraced runs at the cost of a nil check.
type Tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []*Span
	folds map[foldKey]*fold
	// cur is the innermost open span of the serial Push/Pop discipline.
	cur *Span
}

func newTracer(run string) *Tracer {
	return &Tracer{run: run, epoch: time.Now(), folds: make(map[foldKey]*fold)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Start opens a span under an explicit parent (nil for a root). Use it
// where spans of several goroutines overlap; serial code uses Push.
func (t *Tracer) Start(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(parent, name)
}

func (t *Tracer) startLocked(parent *Span, name string) *Span {
	s := &Span{Name: name, Run: t.run, tr: t, up: parent}
	switch {
	case parent == nil:
	case parent.folded:
		s.Parent = parent.Parent
	default:
		s.Parent = parent.ID
	}
	if len(t.spans) >= maxSpans {
		s.folded = true
	} else {
		t.spans = append(t.spans, s)
		s.ID = len(t.spans)
	}
	s.StartNs = t.now()
	return s
}

// End closes the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.EndNs = end
	if s.folded {
		k := foldKey{s.Parent, s.Name}
		f := t.folds[k]
		if f == nil {
			f = &fold{}
			t.folds[k] = f
		}
		dur := s.EndNs - s.StartNs
		f.Count++
		f.TotalNs += dur
		// Children opened with Start may overlap, and then sum to more
		// than their parent took.
		f.SelfNs += max(dur-s.childNs, 0)
		if s.up != nil && s.up.folded {
			s.up.childNs += dur
		} else {
			f.OuterNs += dur
		}
	}
}

// Push opens a span under the innermost span opened by Push and makes it
// the innermost. It is for strictly nested, one-at-a-time work (the
// serial replay), where the nesting may cross goroutines — a scan's
// worker calls the link while the caller is blocked in Scan.
func (t *Tracer) Push(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = t.startLocked(t.cur, name)
	return t.cur
}

// Pop closes a span opened by Push and restores its parent as innermost.
func (s *Span) Pop() {
	if s == nil {
		return
	}
	s.End()
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == s {
		t.cur = s.up
	}
}

// rootNs is the duration of the first span opened, the run's root.
func (t *Tracer) rootNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 0
	}
	return t.spans[0].EndNs - t.spans[0].StartNs
}

// layerTime is one row of the waterfall: every span of one name.
type layerTime struct {
	Name    string
	Count   int64
	TotalNs int64
	SelfNs  int64
}

// waterfall computes per-name totals and self times. A span's self time
// is its duration minus the part of it covered by its children (their
// union, so overlapping children are not subtracted twice) and by the
// outermost folded spans under it.
func (t *Tracer) waterfall() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ a, b int64 }
	children := make(map[int][]iv)
	for _, s := range t.spans {
		if s.Parent > 0 && s.EndNs > s.StartNs {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	foldedUnder := make(map[int]int64)
	rows := make(map[string]*layerTime)
	row := func(name string) *layerTime {
		r := rows[name]
		if r == nil {
			r = &layerTime{Name: name}
			rows[name] = r
		}
		return r
	}
	for k, f := range t.folds {
		foldedUnder[k.parent] += f.OuterNs
		r := row(k.name)
		r.Count += f.Count
		r.TotalNs += f.TotalNs
		r.SelfNs += f.SelfNs
	}
	for _, s := range t.spans {
		dur := s.EndNs - s.StartNs
		if dur < 0 {
			dur = 0
		}
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, edge int64 = 0, s.StartNs
		for _, c := range ivs {
			a, b := c.a, c.b
			if a < edge {
				a = edge
			}
			if b > s.EndNs {
				b = s.EndNs
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self := dur - covered - foldedUnder[s.ID]
		if self < 0 {
			self = 0
		}
		r := row(s.Name)
		r.Count++
		r.TotalNs += dur
		r.SelfNs += self
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// selfMs returns the summed self time of every span named name.
func selfMs(rows []layerTime, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return float64(r.SelfNs) / 1e6
		}
	}
	return 0
}

// renderWaterfall prints the rows as a table; shares are of baseNs.
func renderWaterfall(rows []layerTime, baseNs int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %10s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if baseNs > 0 {
			share = 100 * float64(r.SelfNs) / float64(baseNs)
		}
		fmt.Fprintf(&b, "  %-28s %10d %12.2f %12.2f %7.1f%%\n",
			r.Name, r.Count, float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, share)
	}
	return b.String()
}

// writeJSONL writes every span, then every folded counter, one JSON
// object per line.
func (t *Tracer) writeJSONL(path string) (err error) {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for k, fd := range t.folds {
		rec := struct {
			Type    string `json:"type"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			Count   int64  `json:"count"`
			TotalNs int64  `json:"total_ns"`
			SelfNs  int64  `json:"self_ns"`
			Run     string `json:"run"`
		}{"counter", k.parent, k.name, fd.Count, fd.TotalNs, fd.SelfNs, t.run}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

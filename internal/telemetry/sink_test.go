package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestReadEventsNamesTheBadLine pins that a decode error names the line it
// is on, blank lines counted, not the number of events read before it.
func TestReadEventsNamesTheBadLine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		line string
	}{
		{"{bad\n", "line 1:"},
		{"\n\n{bad\n", "line 3:"},
		{"{\"type\":\"event\"}\n\n  \n{bad\n", "line 4:"},
		{"{\"type\":\"event\"}\r\n{\"type\":\"event\"}\r\n\r\n{bad", "line 4:"},
	} {
		_, err := ReadEvents(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), "bad trace "+tc.line) {
			t.Errorf("ReadEvents(%q) = %v, want an error on %s", tc.in, err, strings.TrimSuffix(tc.line, ":"))
		}
	}
}

// encodeEvents writes evs as a trace, the way a tracer's sink does.
func encodeEvents(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, ev := range evs {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadEvents feeds ReadEvents arbitrary trace bytes. It must never
// panic, and whatever it accepts must re-encode to the same events: the
// trace it writes back reads as as many events, and writing those again
// gives the same bytes.
func FuzzReadEvents(f *testing.F) {
	var buf bytes.Buffer
	tr := NewTracer(nil, NewJSONLSink(&buf))
	tr.Registry().Counter("scanner.probes_sent.ICMP").Add(3)
	tr.Registry().Gauge("world.reply_ratio").Set(0.25)
	tr.Registry().ObserveDuration("scanner.scan.wall_seconds", 0.5)
	run := tr.StartSpan("run", Attrs{"budget": 1000, "tga": "6Tree"})
	tr.Progress("run", 1, 4)
	run.EndWith(Attrs{"generated": 64, "ok": true, "list": []any{1, "a"}})
	if err := tr.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n\n{bad\n"))
	f.Add([]byte(`{"type":"event","attrs":{}}` + "\r\n" + `{"type":"metrics","metrics":{}}`))
	f.Add([]byte(`{"type":"span_end","duration_ms":1e308,"span":-1}`))
	f.Add([]byte(`{"TYPE":"x","Attrs":{"k":null}} {"type":"y"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encodeEvents(t, evs)
		again, err := ReadEvents(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v\n%s", err, once)
		}
		if len(again) != len(evs) {
			t.Fatalf("%d events re-encode to %d", len(evs), len(again))
		}
		if twice := encodeEvents(t, again); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", once, twice)
		}
	})
}

package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesAreWritten: on scan and on a one-epoch daemon run,
// -cpuprofile and -memprofile each leave a non-empty gzip-compressed pprof
// profile behind.
func TestProfilesAreWritten(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(dir string, profiles ...string) error
	}{
		{"scan", func(_ string, profiles ...string) error {
			return execute(context.Background(), "scan", append(append([]string{"-source", "Umbrella"}, smallEnv...), profiles...)...)
		}},
		{"daemon", func(dir string, profiles ...string) error {
			args := daemonArgs(filepath.Join(dir, "state"), filepath.Join(dir, "store"), "-epochs", "1")
			return execute(context.Background(), "daemon", append(args, profiles...)...)
		}},
	} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
		if err := c.run(dir, "-cpuprofile", cpu, "-memprofile", mem); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, path := range []string{cpu, mem} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			zr, err := gzip.NewReader(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s: %s: %d bytes, not gzip: %v", c.name, filepath.Base(path), len(b), err)
			}
			if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
				t.Errorf("%s: %s: %d bytes unzipped (%v), want a profile", c.name, filepath.Base(path), len(raw), err)
			}
		}
	}
}

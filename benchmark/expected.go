package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// expectedJSON holds the committed output digests: workload → seed →
// digest key → value, for the full size only. A seed it does not list is
// still checked, by the workloads themselves, for equal outputs on every
// pass of a run.
//
//go:embed expected.json
var expectedJSON []byte

type expectedTable map[string]map[string]map[string]string

// expectedSeeds are the seeds -update-expected records.
var expectedSeeds = []uint64{42, 7}

func loadExpected() (expectedTable, error) {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return t, nil
}

// checkExpected compares a run's digests with the committed ones and
// returns one line per difference. Keys the run did not produce (a short
// run completes fewer daemon epochs) are not differences.
func checkExpected(cfg runConfig, got map[string]string) []string {
	if cfg.Size.Name != fullSize.Name {
		return nil
	}
	t, err := loadExpected()
	if err != nil {
		return []string{err.Error()}
	}
	want := t[cfg.Workload][strconv.FormatUint(cfg.Seed, 10)]
	var out []string
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; ok && g != want[k] {
			out = append(out, fmt.Sprintf("%s: %s, expected.json has %s", k, g, want[k]))
		}
	}
	return out
}

// updateExpected re-records expected.json from this tree. It refuses when
// internal/ has uncommitted changes, so the committed digests always
// describe a committed program.
func updateExpected(outDir string) error {
	status, err := exec.Command("git", "status", "--porcelain", "--", "internal").Output()
	if err != nil {
		return fmt.Errorf("cannot tell whether internal/ is clean: git status: %w", err)
	}
	if len(status) > 0 {
		return fmt.Errorf("internal/ has uncommitted changes; commit or stash them first:\n%s", status)
	}
	t := make(expectedTable)
	for _, name := range workloadNames {
		t[name] = make(map[string]map[string]string)
		for _, seed := range expectedSeeds {
			rec, err := runOne(runConfig{Workload: name, Seed: seed, Seconds: 3, Size: fullSize, OutDir: outDir, SkipExpected: true})
			if err != nil {
				return err
			}
			if len(rec.Notes) > 0 {
				return fmt.Errorf("%s seed %d is not clean, refusing to record it: %v", name, seed, rec.Notes)
			}
			t[name][strconv.FormatUint(seed, 10)] = rec.Digests
			fmt.Printf("recorded %s seed %d: %d digests\n", name, seed, len(rec.Digests))
		}
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "expected.json"), append(data, '\n'), 0o644)
}

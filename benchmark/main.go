// Command benchmark is seedscan's one benchmark: five named workloads, an
// end-to-end row for each, and a per-layer waterfall.
//
//	go run ./benchmark                      every workload, 3 untraced runs each
//	                                        (interleaved) and 1 traced, every
//	                                        output checked, every metric printed
//	go run ./benchmark -workload scan_flood -seed 7 -seconds 10 -trace 0
//	                                        one run; the last line of standard
//	                                        output is the result as JSON
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -smoke               all five at about 1/50 size
//	go run ./benchmark -update-expected     re-record expected.json
//
// bash benchmark/run.sh takes the same arguments and keeps the build
// inside the checkout. See README.md for what every metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result line (default: the whole suite)")
		seed         = flag.Uint64("seed", 42, "seeds seed collection, scan order and cookies, faults, and the query mix")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "1: run through the benchmark's wrappers and report per-layer metrics")
		detail       = flag.String("detail", "", "also write the run's full record to this file")
		outDir       = flag.String("out-dir", "benchmark/out", "where traces, results and scratch stores go")
		out          = flag.String("out", "", "suite: write the result JSON here (default <out-dir>/result.json)")
		compare      = flag.Bool("compare", false, "compare two suite results: -compare a.json b.json")
		smoke        = flag.Bool("smoke", false, "run all five workloads at about 1/50 size, traced and untraced")
		update       = flag.Bool("update-expected", false, "re-record benchmark/expected.json (refuses on a dirty internal/ tree)")
	)
	flag.Parse()

	// All load comes from this one process; it never uses more than four
	// cores, so numbers from a bigger box stay comparable in kind.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: -compare a.json b.json"))
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *update:
		err = updateExpected(*outDir)
	case *smoke:
		err = runSmoke(os.Stdout, *outDir)
	case *workloadName != "":
		err = runSingle(runConfig{
			Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Size: fullSize, OutDir: *outDir,
		}, *detail)
	default:
		if *out == "" {
			*out = filepath.Join(*outDir, "result.json")
		}
		err = runSuite(suiteConfig{Seed: *seed, Seconds: *seconds, OutDir: *outDir, Out: *out})
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runSingle is the driver's entry: one run, its metrics printed by name,
// then the result line.
func runSingle(cfg runConfig, detail string) error {
	rec, err := runOne(cfg)
	if err != nil {
		return err
	}
	printRun(os.Stdout, rec)
	if detail != "" {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.resultLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSmoke runs every workload once untraced and once traced at the smoke
// size, in this process, and checks that each emits exactly the declared
// metric names.
func runSmoke(w *os.File, outDir string) error {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(runConfig{Workload: name, Seed: 42, Seconds: 0.2, Trace: traced, Size: smokeSize, OutDir: outDir})
			if err != nil {
				return err
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				return fmt.Errorf("%s trace=%v: %d metrics, %d declared", name, traced, len(rec.Metrics), len(defs))
			}
			if !rec.Correct {
				return fmt.Errorf("%s trace=%v: %d of %d operations failed: %v", name, traced, rec.Failed, rec.Attempted, rec.Notes)
			}
			fmt.Fprintf(w, "smoke %-13s trace=%-5v ok: %d operations, %d metrics, %.2fs\n",
				name, traced, rec.Attempted, len(rec.Metrics), rec.WallS)
		}
	}
	return nil
}

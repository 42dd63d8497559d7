// Package seedscan reproduces "Seeds of Scanning: Exploring the Effects of
// Datasets, Methods, and Metrics on IPv6 Internet Scanning" (Williams &
// Pearce, IMC 2024) as a self-contained Go system: the paper's eight
// Target Generation Algorithms (plus two extended-set TGAs, AddrMiner and
// 6Prob), a Scanv6-style wire-format scanner, multi-mode dealiasing,
// twelve seed-source collectors, the paper's metrics, and an experiment
// harness regenerating every table and figure — all running against a
// deterministic simulated IPv6 Internet instead of live scans. See
// internal/tga/all for the paper-set versus extended-set distinction.
//
// The root package carries the module documentation, the minimal pipeline
// as a checked Example (example_test.go), the pin of internal/'s exported
// surface (api_test.go, api.txt) and one benchmark per experiments section
// (bench_test.go); the implementation lives under internal/, the runnable
// entry points under cmd/, and the repository's performance benchmark —
// five workloads, end-to-end and per-layer metrics, declared in
// BENCHMARK.json — under benchmark/ (go run ./benchmark). See README.md
// for a tour and, in its Architecture block, the package list; DESIGN.md
// for the design; and EXPERIMENTS.md for paper-versus-measured results.
package seedscan

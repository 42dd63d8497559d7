GO ?= go

.PHONY: all build vet test race bench bench-compare cover smoke experiments clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The telemetry registry, tracer, scanner, and experiment grids are
# exercised concurrently; the race detector is the tier-1 gate for them.
race:
	$(GO) test -race ./...

# The repository's one benchmark (benchmark/README.md): five workloads,
# three untraced runs each plus one traced, written to
# benchmark/out/result.json. bench-compare judges two such results against
# the bounds in BENCHMARK.json: make bench-compare A=parent.json B=change.json
bench:
	$(GO) run ./benchmark

bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# A small end-to-end smoke run: the quickstart with a JSONL trace.
smoke:
	$(GO) run ./examples/quickstart -trace /tmp/seedscan-trace.jsonl
	@head -3 /tmp/seedscan-trace.jsonl

experiments:
	$(GO) run ./cmd/experiments

clean:
	rm -rf cover.out .bench_build benchmark/out

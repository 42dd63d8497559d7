GO ?= go

.PHONY: all build vet fmt-check test race alloc-pins bench bench-compare cover smoke experiments golden-check clean

all: vet fmt-check build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing them, if any Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .) && if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The telemetry registry, tracer, scanner, and experiment grids are
# exercised concurrently; the race detector is the tier-1 gate for them.
race:
	$(GO) test -race ./...

# Allocation pins live in //go:build !race test files (the race detector
# allocates), and a recycling bug may show in only some runs: every Test of
# every such file runs twenty times, a new pin file included, and so does
# the one recycling test outside such a file.
alloc-pins:
	@set -e; for dir in $$(grep -rl --include='*_test.go' '^//go:build !race' . | xargs dirname | sort -u); do \
	  tests=$$(grep -l '^//go:build !race' $$dir/*_test.go | xargs sed -n 's/^func \(Test[A-Za-z0-9_]*\)(.*/\1/p' | paste -sd'|'); \
	  echo "$(GO) test -count=20 -run '^($$tests)$$' $$dir/"; \
	  $(GO) test -count=20 -run "^($$tests)$$" $$dir/; \
	done; \
	$(GO) test -count=20 -run '^TestRecycledScratchLeavesResultsAlone$$' ./internal/tga/

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

# A small end-to-end smoke run: one TGA run with a JSONL trace.
smoke:
	$(GO) run ./cmd/seedscan run -budget 2000 -trace /tmp/seedscan-trace.jsonl
	@head -3 /tmp/seedscan-trace.jsonl

experiments:
	$(GO) run ./cmd/experiments

# Regenerates experiments_output.txt from its three reference invocations
# and diffs it against the committed file. Only the `done in` lines (wall
# time) may differ.
GOLDEN_FLAGS = -ases 150 -scale 0.4 -budget 12000 -protos all -gens extended

golden-check:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	{ $(GO) run ./cmd/experiments $(GOLDEN_FLAGS) && \
	  $(GO) run ./cmd/experiments $(GOLDEN_FLAGS) -run table7,rq5,ablation && \
	  $(GO) run ./cmd/experiments $(GOLDEN_FLAGS) -run raw912; } > "$$out" && \
	diff -I '^done in ' experiments_output.txt "$$out" && \
	echo "golden-check: experiments_output.txt reproduced"

clean:
	rm -rf cover.out .bench_build benchmark/out

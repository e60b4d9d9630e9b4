GO ?= go

.PHONY: all build vet test race ci bench profile

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# benchmark/ is left out: its smoke test's parallel subtests share the
# harness's speed-probe buffers (see scripts/ci.sh).
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/benchmark$$')
	$(GO) test ./benchmark

# Tier-1 gate plus the race detector over the parallelized packages.
ci: build vet race

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): five
# workloads end to end plus the per-layer ladder.
bench:
	bash benchmark/run.sh

# Capture pprof CPU+alloc profiles (figure2 run, dense-wake arm,
# light-arm sweep) and their top-20 summaries under profiles/ — the
# input for DESIGN.md's "Where the time goes" section.
profile:
	./scripts/profile.sh

# DataSculpt-Go build/test entry points. `make ci` is the gate every
# change must pass; each of its checks has exactly one producer here.
#
# Performance: `bash bench/run.sh` is the only producer of the numbers a
# change may claim (its workloads are declared in BENCHMARK.json). The
# committed BENCH_*.json files are frozen history that ci never
# regenerates:
#   BENCH_pipeline.json  Engine* benchmarks (since deleted), last
#                        produced at f47a694
#   BENCH_serve.json     loadgen's in-process mode (since deleted), last
#                        produced at bb44ac3
#   BENCH_scale.json     `make bench-scale`, last produced at 36e8181;
#                        TestScaleFloors holds it to the >=5x KATE ANN
#                        speedup and recall@10 >= 0.9 floors

GO ?= go

# Total statement coverage (as printed by `go tool cover -func`) must not
# drop below this floor. It was set one point under 85.5%, then raised
# by the 1.5 points gained when the examples became golden tests and
# the root facade's untested forwards were deleted (87.3% -> 88.8%).
# Raise it when coverage genuinely improves; never lower it to make ci
# pass.
COVERAGE_FLOOR = 86.0

.PHONY: ci fmt-check vet build test race chaos grow-chaos grow-smoke stress fuzz-smoke cover-check bench-test bench bench-grid bench-scale clean

ci: fmt-check vet build test race chaos grow-chaos grow-smoke stress fuzz-smoke cover-check bench-test

# formatting gate: gofmt must list no tracked Go file (listing tracked
# files keeps build output such as .bench_build/ out of the scan)
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fault-injection grid under the race detector: a checkpointed chaos
# sweep is interrupted, resumed, and must render byte-identically
chaos:
	$(GO) test -race -run 'Chaos|LoadCheckpoint' -count=1 ./internal/experiment/

# growth-loop durability under the race detector: the online growth
# daemon is killed at every checkpoint boundary of a cycle (with the
# LLM degraded by seeded fault injection), restarted cold, and must
# resume to a byte-identical candidate bundle and journal row
grow-chaos:
	$(GO) test -race -run TestGrowthChaos -count=1 ./internal/growth/

# tiny end-to-end growth cycle over the Youtube split (wired into ci):
# boot the daemon with the growth loop attached, label real HTTP
# traffic into the capture reservoir, run one cycle, and check
# /v1/growth reports the outcome
grow-smoke:
	$(GO) test -run 'TestGrowthSmoke|TestDaemonGrowthEndToEnd' -count=1 ./internal/growth/ ./cmd/datasculptd/

# evaluation-engine determinism under the race detector: incremental
# vote-matrix appends, parallel EM, the SEU scoring engine, and a
# Parallelism: N vs 1 pipeline run must all be race-free and
# bit-identical
stress:
	$(GO) test -race -count=1 \
		-run 'Parallel|Incremental|ComputeStats|WarmStart|InterimCache|VoteMatrix|Chunks|For|Normalize|SEU' \
		./internal/par/ ./internal/lf/ ./internal/labelmodel/ ./internal/textproc/ ./internal/core/ ./internal/sampler/

# 30 seconds of coverage-guided fuzzing per target on the inputs that
# cross a trust boundary: LLM completions, raw text and its feature
# vectors, label and bundle-promote request bodies, bundle files, the
# growth loop's on-disk step journal, grid checkpoint files, arbitrary
# bytes as a ckpt journal reopened and appended to, a growth cycle's
# snapshot resumed by a fresh daemon (which must never promote a
# candidate its journal row does not fingerprint), and the meta and
# train files of a dataset directory; raw keyword
# phrases (as a bundle file can carry them) through the index's
# one-pass LF evaluation, which must match a full Apply scan; plus arbitrary vote matrices through MeTaL's per-pattern
# EM, which must match the row-by-row reference bit for bit; and
# arbitrary label values through the metric families, whose Prometheus
# and JSON exports must stay well-formed under a capped series count.
# `go test -fuzz` accepts a single target per invocation, hence one run
# each.
fuzz-smoke:
	$(GO) test -run XXX -fuzz '^FuzzParseResponse$$' -fuzztime 30s ./internal/prompt/
	$(GO) test -run XXX -fuzz '^FuzzSelfConsistency$$' -fuzztime 30s ./internal/prompt/
	$(GO) test -run XXX -fuzz '^FuzzTokenize$$' -fuzztime 30s ./internal/textproc/
	$(GO) test -run XXX -fuzz '^FuzzTransform$$' -fuzztime 30s ./internal/textproc/
	$(GO) test -run XXX -fuzz '^FuzzBundleLoad$$' -fuzztime 30s ./internal/bundle/
	$(GO) test -run XXX -fuzz '^FuzzGatewayLabel$$' -fuzztime 30s ./internal/registry/
	$(GO) test -run XXX -fuzz '^FuzzGatewayPromote$$' -fuzztime 30s ./internal/registry/
	$(GO) test -run XXX -fuzz '^FuzzProposerReplay$$' -fuzztime 30s ./internal/core/
	$(GO) test -run XXX -fuzz '^FuzzGrowthResume$$' -fuzztime 30s ./internal/growth/
	$(GO) test -run XXX -fuzz '^FuzzLoadDir$$' -fuzztime 30s ./internal/dataset/
	$(GO) test -run XXX -fuzz '^FuzzCheckpointLoad$$' -fuzztime 30s ./internal/experiment/
	$(GO) test -run XXX -fuzz '^FuzzCkptOpen$$' -fuzztime 30s ./internal/ckpt/
	$(GO) test -run XXX -fuzz '^FuzzIndexEval$$' -fuzztime 30s ./internal/lf/
	$(GO) test -run XXX -fuzz '^FuzzMeTaLPatterns$$' -fuzztime 30s ./internal/labelmodel/
	$(GO) test -run XXX -fuzz '^FuzzMetricFamilies$$' -fuzztime 30s ./internal/obs/

# total-coverage regression gate: fail if statement coverage drops below
# the recorded pre-PR baseline. The profile goes to a private mktemp file,
# removed on exit, so concurrent checkouts never read each other's.
cover-check:
	@profile=$$(mktemp); trap 'rm -f "$$profile"' EXIT; \
	$(GO) test -coverprofile="$$profile" ./... > /dev/null || exit 1; \
	total=$$($(GO) tool cover -func="$$profile" | tail -1 | awk '{sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the floor $(COVERAGE_FLOOR)%"; exit 1; }

# the benchmark harness's own module (bench/): vet plus its tests,
# which run all five workloads at smoke scale with served-prediction
# verification and prove a corrupted expectation fails the run
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# every root benchmark at reduced scale, one pass each: the grid, one
# pipeline run and the DESIGN.md §5 ablations (the paper's tables come
# from cmd/benchtab)
bench:
	$(GO) test -bench . -benchtime=1x -run XXX -v .

# serial vs parallel wall-clock and allocations on the identical
# experiment grid, in the Go benchmark text format benchstat consumes
bench-grid:
	$(GO) test -bench=Grid -benchtime=1x -benchmem -run XXX .

# out-of-core scale benchmarks: 100x Youtube (158,600 train documents)
# through exact vs LSH KATE retrieval (per-query latency + recall@10).
# The only producer of out-of-core numbers; writes BENCH_scale.json,
# whose floors TestScaleFloors enforces.
bench-scale:
	$(GO) test -bench=Scale -benchtime=1x -benchmem -run XXX . | tee BENCH_scale.json

clean:
	$(GO) clean ./...

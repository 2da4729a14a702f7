GO ?= go

# VERSION is stamped into the binaries (rsmd_build_info, /healthz) through
# the obs.Version ldflag; override with `make build VERSION=v1.2.3`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -X repro/internal/obs.Version=$(VERSION)

.PHONY: all build test race vet fmt-check bench bench-smoke bench-check chaos crash-smoke obs trace-smoke fuzz-smoke pipeline-smoke refit-smoke cluster-smoke paper-check ci

all: build

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

# Race-detect the concurrent surfaces: the serving daemon's handlers and
# worker pools, the model registry, batched prediction, and the sampling
# engine.
race:
	$(GO) test -race ./internal/server/... ./internal/registry/... ./internal/cluster/... ./internal/core/... ./internal/mc/... ./internal/pipeline/... ./internal/journal/... ./internal/obs/... ./rsm/...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The serving hot-path and fit-path baselines (see internal/core/bench_test.go
# and internal/server/bench_test.go).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/core/ ./internal/server/

# One iteration of every benchmark: catches benchmarks that no longer compile
# or crash without paying full measurement time. Part of make ci.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/core/ ./internal/server/

# Pre-flight for the repository benchmark (bench/, BENCHMARK.json): one
# 3-second pass of every workload at seed 1 against a freshly built rsmd.
# The harness exits non-zero on any failed request or wrong answer, and so
# does this target. About a minute, so it is not part of ci.
BENCH_WORKLOADS = predict-serve yield-mc fit-cv mixed-ops
bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench-check: $$w"; \
		sh bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done

# Short fuzz passes over the daemon's untrusted parse surfaces: the
# envelope parser (upload endpoint) and the SPICE netlist parser (pipeline
# endpoint). Long enough to exercise the mutator beyond the seed corpus,
# short enough for CI. Part of make ci.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadEnvelope$$' -fuzztime=5s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzReadCheckpoint$$' -fuzztime=5s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzParseNetlist$$' -fuzztime=5s ./internal/spice/
	$(GO) test -run='^$$' -fuzz='^FuzzReplayJournal$$' -fuzztime=5s ./internal/journal/
	$(GO) test -run='^$$' -fuzz='^FuzzBuildTree$$' -fuzztime=5s ./internal/obs/trace/

# Fault-injection suite: drives the daemon through injected solver panics,
# mid-write registry crashes, stalled jobs and saturation (internal/server
# chaos_test.go, cmd/rsmd drain tests) under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestDraining|TestDaemon' ./internal/server/ ./cmd/rsmd/

# Crash/recovery suite: kills the daemon with fit and pipeline jobs in
# flight, then proves the next boot replays the job journal — in-flight
# jobs re-run to done under their original IDs, canceled and quarantined
# outcomes stick, idempotent resubmits dedup across the restart, and a
# full disk degrades submits to 503 while predict keeps serving. Under the
# race detector; part of make ci.
crash-smoke:
	$(GO) test -race -run 'TestCrash|TestChaosJournal' ./internal/server/

# Tracing smoke: the hierarchical-span layer end to end under the race
# detector — span-tree assembly (property tests), the tail-sampled store's
# concurrent hammer, the trace/event HTTP endpoints, exemplar resolution
# and SSE job tailing through the public client. Part of make ci.
trace-smoke:
	$(GO) test -race ./internal/obs/trace/
	$(GO) test -race -run 'TestTracing|TestHTTPRequestTraced|TestTraceList|TestFitJobTrace|TestPipelineJobTrace|TestJobEvents|TestFitExemplar' ./internal/server/
	$(GO) test -race -run 'TestClientWatchJob' ./rsm/

# Observability smoke: drives an upload, predictions, a fit and a refine
# through the serving stack, scrapes /metrics in Prometheus text format and
# validates the exposition (cumulative le buckets, TYPE metadata, +Inf
# terminators), every metric family and the samples the traffic implies,
# then the fit-histogram exemplar, the trace list and the SSE replay; and
# the rsmd_cluster_* families against a live 2-node ring
# (internal/server obs_test.go and cluster_test.go). Part of make ci.
obs:
	$(GO) test -run 'TestMetricsPrometheusExposition|TestClusterMetricsExposition' ./internal/server/

# End-to-end pipeline smoke: the netlist-in, model-out acceptance loop
# (POST /v1/pipelines with the committed rc_lowpass deck + spec through to
# served predictions) under the race detector. Part of make ci.
pipeline-smoke:
	$(GO) test -race -run 'TestPipeline' ./internal/server/
	$(GO) test -race ./internal/pipeline/

# Incremental-refit smoke: checkpoint round-trips and warm continuation in
# the solver engine, checkpoint persistence in the registry, and the
# POST /v1/models/{name}/refine loop — submit, publish gate, provenance,
# metrics, crash replay — under the race detector. Part of make ci.
refit-smoke:
	$(GO) test -race -run 'TestCheckpoint|TestWarmStart|TestCrossValidateScrubs' ./internal/core/
	$(GO) test -race -run 'TestCheckpoint|TestDeleteRemovesCheckpoints' ./internal/registry/
	$(GO) test -race -run 'TestRefine|TestCrashRecoveryRefineReplay' ./internal/server/
	$(GO) test -race -run 'TestClientRefineRoundTrip' ./rsm/

# Horizontal-serving smoke: the hash-ring property tests, the multi-node
# routing/replication/read-your-writes/chaos suites (in-process 3-node
# harness + the daemon's flag surface), the client redirect regressions
# and TestDaemonClusterShardKill — a real 3-process rsmd ring with one
# shard SIGKILLed under load, failing on any error from a live shard's
# models, any accepted job left without a terminal state, or a canary
# fit the journal does not replay to done — all under the race detector.
# Part of make ci.
cluster-smoke:
	$(GO) test -race -run 'TestRing|TestPeer|TestCluster|TestChaosCluster|TestDaemonCluster' ./internal/cluster/ ./internal/server/ ./cmd/rsmd/
	$(GO) test -race -run 'TestClientFollowsClusterRedirects|TestClientClusterPredictAtLeastAndDelete' ./rsm/

# Paper regression gate: re-runs every table and figure of the paper's
# evaluation (cmd/paperbench -exp all, about two minutes on a 2-vCPU host)
# and compares the output with the committed paperbench_output.txt cell by
# cell, after collapsing runs of spaces: column widths move with the timing
# cells, so a byte diff would fail spuriously. Rows that are times or are
# derived from times are skipped (simulation, fitting, total and projected
# cost, both OMP speedup lines); every error, K and λ cell must match. A
# change that moves a cell on purpose re-records the file. Part of make ci,
# not of go test.
PAPER_TIME_ROWS = ^(simulation cost|fitting cost|total cost|projected total|OMP speedup)
paper-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	cells() { grep -Ev '$(PAPER_TIME_ROWS)' "$$1" | tr -s ' ' | sed 's/ $$//'; } && \
	$(GO) run ./cmd/paperbench -exp all > "$$tmp/run.txt" && \
	cells paperbench_output.txt > "$$tmp/want" && cells "$$tmp/run.txt" > "$$tmp/got" && \
	if diff "$$tmp/want" "$$tmp/got"; then \
		echo "paper-check: every non-time cell matches paperbench_output.txt"; \
	else \
		echo "paper-check: cells differ from paperbench_output.txt (< committed, > this run)"; exit 1; \
	fi

ci: vet fmt-check build test race chaos crash-smoke obs trace-smoke bench-smoke fuzz-smoke pipeline-smoke refit-smoke cluster-smoke paper-check

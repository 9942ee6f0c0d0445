GO ?= go

.PHONY: all build test check fuzz-smoke soak-smoke load-smoke cluster-smoke bench bench-smoke bench-guard

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: formatting, static analysis, a full
# build, the race detector over every package (the streaming server
# made concurrency repo-wide: sessions, the janitor, SSE subscribers,
# and the e2e tests all race against each other), vet and tests of the
# benchmark under bench/ (a module of its own, which ./... does not
# reach, so a core API change that breaks it would otherwise pass), and
# a short fuzz of the trace readers.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(MAKE) fuzz-smoke

# fuzz-smoke runs each fuzz target briefly (the Go fuzzer accepts one
# -fuzz pattern per invocation, hence one run per target): the trace
# readers and frame decoder, the detector snapshot decoder, WAL replay,
# the stream handshake, the session's one ingest method (record
# sequences on a durable session, then crash recovery), and adoption of
# migration blobs. The seed
# corpora under */testdata/fuzz run on every plain `go test` as well.
# FuzzAdopt's seeds are whole migration blobs of several KB, and the
# fuzzer's default 60s budget for minimizing each new input would use up
# the whole run, so its minimization is capped at 1s.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadBranches -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzReadEvents -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzFrame -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzDetectorRestore -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=5s ./internal/durable
	$(GO) test -run=NONE -fuzz=FuzzStreamHandshake -fuzztime=5s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzIngest -fuzztime=5s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzAdopt -fuzztime=5s -fuzzminimizetime=1s ./internal/serve

# soak-smoke is a ~20s slice of the chaos soak under the race detector:
# dozens of concurrent stream/poll/SSE sessions with injected disk
# faults, connection kills, and stalled clients, asserting no deadlock,
# no goroutine leaks, a zeroed byte accountant, and streamed ≡ offline
# for every surviving session. OPD_SOAK_DURATION stretches it for real
# soaking (e.g. OPD_SOAK_DURATION=5m). This target and the other smoke
# and guard targets below pass -count=1: their tests read only fixed
# environment variables, so without it go test answers a repeated run
# from its cache ("(cached)", the first run's log) instead of running it.
soak-smoke:
	OPD_SOAK=1 OPD_SOAK_DURATION=$${OPD_SOAK_DURATION:-15s} $(GO) test -count=1 -race -run TestChaosSoak -v ./internal/serve

# load-smoke is a ~15s seeded loadgen run against an in-process server
# under the race detector: dozens of sessions across every protocol
# (framed stream, stream-branch, POST+SSE, POST+poll) with churn and an
# RPS ramp, asserting nonzero throughput, zero errors outside the
# overload contract, client/server ledger agreement, and that every
# goroutine winds down. OPD_LOAD_DURATION stretches it. -count=1: see
# soak-smoke.
load-smoke:
	OPD_LOAD=1 OPD_LOAD_DURATION=$${OPD_LOAD_DURATION:-12s} $(GO) test -count=1 -race -run TestLoadSmoke -v ./internal/loadgen

# cluster-smoke is the gateway node-kill e2e under the race detector:
# a three-node in-process cluster behind the gateway, live framed
# streams, one node killed mid-feed — every stream must ride through
# via re-home + replay with summaries and events bit-identical to the
# offline detector, no session left routed to the dead node, and the
# survivors' accountants at zero after shutdown. -count=1: see
# soak-smoke.
cluster-smoke:
	OPD_CLUSTER=1 $(GO) test -count=1 -race -run TestClusterKillMigration -v ./internal/cluster

bench:
	$(GO) test -bench . -benchtime 1s -run '^$$' ./internal/core/... ./internal/sweep/... ./internal/telemetry/... ./internal/serve/...

# bench-smoke compiles and runs every benchmark in the repository once —
# a fast regression gate that benchmarks still build and complete.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-guard enforces the performance budgets: full instrumentation
# (stage timers, latency histograms, flight recorder) must not add more
# than 5% to the BenchmarkServeIngest path versus a probe-free server,
# and streaming ingest at 1K-element chunks must stay within 1.2x of
# the bare detector feed on the dense-ID path (2.5x in branch frames).
# -count=1: see soak-smoke.
bench-guard:
	OPD_TRACE_GUARD=1 $(GO) test -count=1 -run=TestTracingOverheadGuard -v ./internal/serve
	OPD_INGEST_GUARD=1 $(GO) test -count=1 -run=TestStreamingIngestGuard -v ./internal/serve

GO ?= go

.PHONY: build test race race-txn vet fmt-check doc-check md-check fuzz-smoke budgets bench-harness bench bench-json bench-shard bench-groupcommit bench-trace bench-load metrics-smoke trace-smoke load-smoke serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-txn repeats the lock manager's tests under the race detector: its
# stress test is the one tier-1 failure this repository has had that a
# single run does not show.
race-txn:
	$(GO) test -race -count=20 ./internal/txn

vet:
	$(GO) vet ./...

# fmt-check fails (listing the files) when anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# doc-check fails on undocumented exported identifiers in the public
# API surface: the root instantdb package, client, and sqldriver.
doc-check:
	$(GO) run ./internal/tools/doccheck . client sqldriver

# md-check validates markdown cross-links and heading anchors.
md-check:
	$(GO) run ./internal/tools/mdcheck README.md DESIGN.md ROADMAP.md

# fuzz-smoke runs every fuzz target for FUZZTIME each: the SQL parser,
# the WAL batch-payload decoder (replication and recovery feed it bytes
# from outside the process), the audit trail's block decoder (Verify
# and every reopen feed it bytes from a directory an attacker may have
# written), and the B+tree's, the posting's and the degradation queue's
# op streams against their models.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeRecords -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecodeAuditBlock -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzBTreeOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzPosting -fuzztime $(FUZZTIME)
	$(GO) test ./internal/degrade -run '^$$' -fuzz FuzzTaskFIFO -fuzztime $(FUZZTIME)

# budgets runs the tests that hold a committed size: heap bytes per row
# of an open database, a B+tree under churn against a fresh tree of the
# same content, heap bytes per posting id and per pending degradation
# task, audit-trail bytes per event, and WAL bytes per insert and per
# degrade record (with the allocations per sealed payload).
budgets:
	$(GO) test -run 'ResidentBudget|ChurnBounded|SizeBudget' ./internal/...

# bench-harness vets and tests the benchmark harness. It is a nested
# module (bench/go.mod) that no ./... pattern reaches, and it compiles
# against internal packages: run it after changing any of them.
bench-harness:
	cd bench && $(GO) vet . && $(GO) test .

bench:
	$(GO) test ./... -run '^$$' -bench . -benchmem

# bench-json regenerates the committed metrics-overhead reference
# (BENCH_PR6.json): ns/op, allocs, and the instrumentation delta on the
# insert/select hot paths (budget <2% per path).
bench-json:
	$(GO) run ./cmd/benchrunner -exp METRICS -n 5000 -rounds 12 -benchjson BENCH_PR6.json

# bench-shard regenerates the committed sharding reference
# (BENCH_PR7.json): insert / point-select / scan throughput through the
# router, 1-shard vs 3-shard.
bench-shard:
	$(GO) run ./cmd/benchrunner -exp SHARD -benchjson BENCH_PR7.json

# bench-groupcommit regenerates the committed group-commit reference
# (BENCH_PR8.json): durable commits/sec and fsyncs/commit at 1/8/32
# sessions, per-batch fsync vs group commit.
bench-groupcommit:
	$(GO) run ./cmd/benchrunner -exp GROUPCOMMIT -n 4000 -rounds 3 -benchjson BENCH_PR8.json

# metrics-smoke boots a database with a live degradation workload,
# scrapes /metrics and /healthz over HTTP and the Stats opcode over
# TCP, and lints the Prometheus exposition.
metrics-smoke:
	$(GO) run ./internal/tools/metricssmoke

# trace-smoke exercises the tracing and audit surface end to end: a
# forced trace on a durable INSERT must decompose down to the shared
# group-commit fsync, a crossed degradation deadline must land in a
# hash-chain-verifiable audit trail, and /debug/traces + /debug/pprof
# must answer on the metrics listener.
trace-smoke:
	$(GO) run ./internal/tools/tracesmoke

# load-smoke runs the quick open-loop SLO experiment end to end and
# hard-asserts the ISSUE 10 surface: intended-start quantiles per
# tenant, the mid-run degradation wave visible in the lag gauge and
# settled by drain, span attribution for the slowest traced op, the
# audit chain verified over the wave, and a passing SLO verdict.
load-smoke:
	$(GO) run ./internal/tools/loadsmoke

# bench-load regenerates the committed open-loop SLO reference
# (BENCH_PR10.json): the full (non-quick) LOAD run — three tenants,
# Poisson arrivals, degradation wave mid-steady-phase — which fails if
# any SLO gate is violated.
bench-load:
	$(GO) run ./cmd/benchrunner -exp LOAD -benchjson BENCH_PR10.json

# bench-trace regenerates the committed tracing-overhead reference
# (BENCH_PR9.json): insert / point-select ns/op and p50/p99 with
# tracing off, unsampled (sample 0), and fully sampled (sample 1) —
# unsampled overhead budget <3% per path.
bench-trace:
	$(GO) run ./cmd/benchrunner -exp TRACE -n 5000 -rounds 12 -benchjson BENCH_PR9.json

serve:
	$(GO) run ./cmd/instantdb-server -dir demo.db -listen :7654

clean:
	rm -rf instantdb instantdb-server degradectl benchrunner bin demo.db

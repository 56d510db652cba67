GO ?= go

.PHONY: build test race race-txn vet fmt-check doc-check md-check fuzz-smoke budgets bench-harness bench serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-txn repeats the lock manager's tests under the race detector: its
# stress test is the one tier-1 failure this repository has had that a
# single run does not show, and its model test drives queued requests
# from goroutines. It also repeats the WAL's and the engine's group-commit
# and crash tests, whose groups form behind a parked fsync
# (wal.FaultInjector.Hold), to show that the gated grouping does not flake,
# and the engine's checks that the commit mutex is free while a
# degradation batch's fsync is parked and that a DROP TABLE landing in
# that window leaves the database open. It repeats a replica applying its
# leader's batches while its own degrader ticks, which race in the one
# commit path.
# And it repeats the wire front end's lifecycle tests, whose Close,
# connection tracking and Accept loop race; each runs as a /server and a
# /router subtest in internal/server. And it repeats the degrader's tick
# against concurrent inserts, events and readers' row locks, which meet
# in the queue lock between a batch's pop and its settle (the whole
# package under -race takes 20 s, this test a fraction of one).
race-txn:
	$(GO) test -race -count=20 ./internal/txn
	$(GO) test -race -count=10 -run 'Group|Crash|DuringDegradeFsync' ./internal/wal ./internal/engine
	$(GO) test -race -count=10 -run 'ReplicaAppliesWhileTicking' ./internal/repl
	$(GO) test -race -count=10 -run 'MaxConns|GracefulClose|Protocol' ./internal/server
	$(GO) test -race -count=10 -run 'TickRacesWriters' ./internal/degrade

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

# fuzz-smoke runs every fuzz target for FUZZTIME each: the SQL parser
# and its script splitter (each statement text it returns parses on its
# own to the same statement, and the shell's Split finds the same
# texts), the value codec (every accepted value re-encodes to the bytes it was
# read from), the wire's statement frame decoder (every request a client
# or router sends is one; an accepted frame re-encodes to one that
# decodes the same, and no claimed count sizes an allocation), the B+tree key codec (keys of one kind order as their
# values do and none is a proper prefix of another), the WAL
# batch-payload decoder (replication and recovery feed it bytes from
# outside the process; seeded with every column form a run takes, and
# with non-canonical columns and claimed widths and lengths the input
# cannot hold, which it must refuse), the audit trail's block decoder (Verify and
# every reopen feed it bytes from a directory an attacker may have
# written) and its run encoder on event streams that make and break
# runs, from single events to whole batches, the B+tree's op stream
# against its model (keys filled past the 128-id spill threshold and
# drained under the 64-id return, ids 2⁴⁰ and 2⁶³−1 apart in one leaf,
# an inline posting emptied in the middle of its leaf's id arena), the
# posting's and the degradation queue's op streams against their
# models, the
# degradation engine's queues (one arrival log per table, read through
# cursors) against a reference that keeps one FIFO per (column, state)
# queue, under inserts, ticks, row locks, predicates, events, replicated
# transitions, user deletes and reseeds, the degrade record patcher against decode, modify and re-encode, page
# records against their frame of reference (decode, rebase round trips,
# patch and rebase in either order), storage runs against the same
# history applied tuple by tuple, and the lock table against its model.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzParseScript$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/value -run '^$$' -fuzz FuzzValueCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/value -run '^$$' -fuzz FuzzOrderedKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeExec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeRecords -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecodeAuditBlock -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzBTreeOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzPosting -fuzztime $(FUZZTIME)
	$(GO) test ./internal/degrade -run '^$$' -fuzz FuzzTaskFIFO -fuzztime $(FUZZTIME)
	$(GO) test ./internal/degrade -run '^$$' -fuzz FuzzQueues -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzPatchRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzPageRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzRuns -fuzztime $(FUZZTIME)
	$(GO) test ./internal/txn -run '^$$' -fuzz FuzzLockManager -fuzztime $(FUZZTIME)

# budgets runs the tests that hold a committed size: heap bytes per row
# of an open database, a B+tree under churn against a fresh tree of the
# same content, B+tree bytes per entry and Stats accuracy (the heap a
# grown tree holds per entry — unique keys ascending and random, about 3
# ids per key, and mixed levels shaped like an index on a degraded
# salary — Stats within 3 % of it, and each node type within its size
# class), heap bytes per posting id and per tuple
# pending three degradation transitions (one arrival-log task, on a
# still clock and on a moving one), audit-trail bytes per event (rows
# inserted one per commit, and the benchmark's 500-row commits), WAL
# bytes per insert and per degrade record on a still clock and off a
# progression (with the allocations per sealed payload), allocations
# per record replaying a 500-row insert run, page reads
# plus writes per degradation transition, per row a THEN DELETE wave
# deletes and per row a bulk UPDATE rewrites, heap bytes allocated per
# transition, heap bytes allocated per row of a 500-row insert commit,
# and page-file bytes per row once the benchmark's rows have degraded,
# inserted at one instant and on a clock that moves between inserts.
budgets:
	$(GO) test -run 'ResidentBudget|ChurnBounded|SizeBudget' ./internal/...

# bench-harness vets and tests the benchmark harness. It is a nested
# module (bench/go.mod) that no ./... pattern reaches, and it compiles
# against internal packages: run it after changing any of them.
bench-harness:
	cd bench && $(GO) vet . && $(GO) test .

bench:
	$(GO) test ./... -run '^$$' -bench . -benchmem

serve:
	$(GO) run ./cmd/instantdb-server -dir demo.db -listen :7654

clean:
	rm -rf instantdb instantdb-server degradectl benchrunner bin demo.db

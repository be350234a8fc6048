GO ?= go

.PHONY: all build test vet sgvet lockreport race fuzz-short bench-smoke bench-test bench-json bench-gate bench-server bench-server-gate serve loadtest-smoke sim-soak ci

all: build test vet sgvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own analyzers (exhaustivekind, noeventliteral, checkederr,
# tnamecompare, behaviorimmutable, simdeterminism, lockguard, lockorder,
# hotalloc); see internal/analysis/README.md.
sgvet:
	$(GO) run ./cmd/sgvet ./...

# Dump the global lock-order graph of the concurrent packages as DOT —
# the acyclic graph the lockorder analyzer enforces; DESIGN.md §11
# commits the current rendering.
lockreport:
	$(GO) run ./cmd/sgvet -lockdot ./internal/server ./internal/sim ./internal/client ./internal/core ./internal/mvto

race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target in the tree: the trace codec
# round-trip properties, the network-facing request and response parsers,
# the edge-batch wire parser, the two frontiers'
# closure lemmas, streaming ≡ batch, the WAL record decoder against its
# bufio-based reference, the WAL recovery path, the event log's packed
# records, the partitioned certificate
# and the moss-vs-undolog backend differential. The committed
# seeds live under */testdata/fuzz/. CI (and `make ci`) run it at
# FUZZTIME=5s.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryTraceRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWalOp$$' -fuzztime $(FUZZTIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseEdgeBatch$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzPrecedesFrontierClosure$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzConflictFrontierClosure$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalDifferential$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRecoveryReplay$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzLogRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionedCertificate$$' -fuzztime $(FUZZTIME) ./internal/part
	$(GO) test -run '^$$' -fuzz '^FuzzBackendDifferential$$' -fuzztime $(FUZZTIME) ./internal/sim

# One iteration of every benchmark: catches benchmarks that no longer
# compile or fail their correctness assertions, without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench/ is a Go module of its own, so `go test ./...` at the root never
# compiles it: a renamed server.Options field or MetricsSnapshot key would
# break the repository's benchmark unnoticed. Vet it and run its tests
# (unit tests plus a smoke run of all six workloads).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Refresh the "current" side of BENCH_PR3.json from a fresh run of the
# gated checker benchmarks (E1; E15's batch build, streaming check and
# one-shot core.Check, all matched by `E15`; E24, E25; the generic runner,
# GenericRun; the one-shot certification of a check-corpus trace by each
# engine, CheckFresh) plus the trace-codec table (E16). The committed
# "baseline" side (the pre-optimization numbers; for E24 and E25 the numbers
# of the PR that introduced each, 0 allocs/op; for CheckFresh the per-parent
# engine it replaced) is preserved.
bench-json:
	$(GO) test -run '^$$' -bench 'E1MossSerialCorrectness|E15|E16|E24|E25|GenericRun|CheckFresh' -benchmem -count 1 . \
		| $(GO) run ./cmd/benchdiff -write-current BENCH_PR3.json

# Fail when the checker or runner benchmarks or the two trace-decode rows of E16
# regress against the committed baseline by more than 25% in allocs/op or
# B/op (ns/op is reported but never gated — wall-clock timing is hardware
# noise on shared runners).
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -suite BENCH_PR3.json \
		-match 'E1MossSerialCorrectness|E15|E16TraceCodec/binary-(decode|stream-check)|E24|E25|GenericRun|CheckFresh' -max-allocs-regress 25 -max-bytes-regress 25

# Refresh the "current" side of BENCH_SERVER.json: the server hot-path
# micro benchmarks (log append with WAL attached, the WAL writer's group
# commit, full client/server session round trip, one whole RunTx of the
# benchmark's shape — all writes, and half reads — and one all-read
# RunReadTx on mvto's snapshot path, over loopback TCP with its writes per
# transaction,
# recovery's WAL scan, one whole recovery of a shut-down 951-event log,
# Final's audit of a drained server one young life in size,
# the offline partitioned certifier's apply+compose)
# plus two short certified nestedload sweeps — clients × read-ratio × zipf,
# and backends × read-ratio — whose latency percentiles and throughput
# parse into the suite as first-class columns (p50-us, p99-us, tx/s).
bench-server:
	( $(GO) test -run '^$$' -bench 'LogAppend|ServerGroupCommit|ServerSessionRoundTrip|ClientRunTx|ClientRunReadTx|WalScan|E18Recover|ServerFinal' -benchmem -count 1 ./internal/server ; \
	  $(GO) test -run '^$$' -bench 'PartitionedApply' -benchmem -count 1 ./internal/part ; \
	  $(GO) run ./cmd/nestedload -sweep -dur 250ms -objects 8 \
		-sweep-clients 1,4,8 -sweep-readratios 0.2,0.8 -sweep-zipfs 0,1.5 ; \
	  $(GO) run ./cmd/nestedload -sweep -dur 250ms -objects 8 \
		-sweep-backends moss,undolog,mvto -sweep-clients 8 \
		-sweep-readratios 0.5,0.95 -sweep-zipfs 0 ) \
		| $(GO) run ./cmd/benchdiff -write-current BENCH_SERVER.json

# Fail when the server hot-path benchmarks regress against the committed
# baseline by more than 25% in allocs/op or B/op, or when a gated
# benchmark is missing from the fresh run. Sweep latency and
# throughput are reported in the diff table but never gated — wall-clock
# numbers are hardware noise on shared runners.
bench-server-gate: bench-server
	$(GO) run ./cmd/benchdiff -suite BENCH_SERVER.json \
		-match 'LogAppend|ServerGroupCommit|ServerSessionRoundTrip|ClientRunTx|ClientRunReadTx|WalScan|E18Recover|ServerFinal|PartitionedApply' -max-allocs-regress 25 -max-bytes-regress 25

# Run the certified transaction server on the default port. SIGTERM (or
# ctrl-C) drains it and prints the final online-vs-batch certificate.
serve:
	$(GO) run ./cmd/nestedsgd -addr 127.0.0.1:7474 -objects x,y,z

# Certified load tests against in-process servers, one per object
# backend: each exits nonzero unless every commit certified and the final
# online SG snapshot matches the batch check byte-for-byte.
loadtest-smoke:
	$(GO) run ./cmd/nestedload -selfserve -backend moss -workers 8 -dur 1s -objects 4 -zipf 1.2 -bench
	$(GO) run ./cmd/nestedload -selfserve -backend undolog -workers 8 -dur 250ms -objects 4 -zipf 1.2
	$(GO) run ./cmd/nestedload -selfserve -backend mvto -workers 8 -dur 250ms -objects 4 -readratio 0.8

# Long deterministic fault-injection soak: 64 seeds, every fault class,
# both protocols. Any failure prints the uint64 seed that replays it;
# SIM_FAILURE_DIR (set in CI) collects per-seed repro artifacts.
sim-soak:
	$(GO) test ./internal/sim -run TestSimLongSoak -seeds 64 -timeout 20m

# Everything CI runs, in order (CI runs the sim soak in short mode with
# -race; sim-soak above is the long local version).
ci: build vet sgvet race bench-smoke bench-test loadtest-smoke bench-gate bench-server-gate
	$(MAKE) fuzz-short FUZZTIME=5s

GO ?= go

.PHONY: build test check detvet fuzz-smoke bench-smoke verify serve sweep-e2e crash-e2e fleet-e2e metrics-e2e chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: build test

# check is the tier-1 gate (see ROADMAP.md): formatting, vet, detvet,
# build, tests. detvet is the in-repo determinism/hash-neutrality linter
# (see DESIGN.md "Static analysis"); a finding fails the gate.
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/detvet ./...
	$(GO) build ./...
	$(GO) test ./...

# detvet runs the determinism & hash-neutrality analyzers standalone
# (walltime, globalrand, maporder, journalerr, hashneutral, annotations).
detvet:
	$(GO) run ./cmd/detvet ./...

# fuzz-smoke runs the fuzzers briefly — long enough to replay the corpus
# and shake the mutator, short enough for CI: the spec-canonicalization
# fuzzer, the engine against the naive whole-execution reference, hostile
# POST bodies against the job and sweep submission endpoints, hostile
# journals replayed by a booting server, and the harness's MIS, CCDS and
# baseline runs (an MIS stops at its decided round) against the
# single-runner reference.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSpecCanonicalization -fuzztime 30s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzRunnerMatchesReference -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSubmitBodies -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 30s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzRunFixedMatchesReference -fuzztime 30s ./internal/harness

# bench-smoke runs every package benchmark once (about 10 s), so the
# benchmarks keep running instead of only compiling under go test ./...
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# serve runs the simulation service daemon (see examples/radiod/README.md
# for the API quickstart; ADDR overrides the listen address).
ADDR ?= :8080
serve:
	$(GO) run ./cmd/radiod -addr $(ADDR)

# sweep-e2e runs the daemon restart / durability check CI runs (boots a
# real radiod against a temp -data dir; see scripts/sweep_e2e.sh).
sweep-e2e:
	sh scripts/sweep_e2e.sh

# crash-e2e kills a real radiod with SIGKILL mid-sweep, restarts it on the
# same -data dir, and asserts the journal-resumed sweep's CSV report is
# byte-identical to an uninterrupted run's (see scripts/crash_e2e.sh).
crash-e2e:
	sh scripts/crash_e2e.sh

# fleet-e2e runs a coordinator plus two worker processes, kills one with
# SIGKILL while it holds a lease, and asserts the re-dispatched sweep's
# CSV report is byte-identical to a single-node run's (see
# scripts/fleet_e2e.sh).
fleet-e2e:
	sh scripts/fleet_e2e.sh

# metrics-e2e boots a real radiod, runs the mis-quick preset twice (miss
# then cache hit) and a 2x2 sweep, lints the /metrics exposition with
# cmd/promlint, and asserts cache counters, latency-histogram sums, phase
# monotonicity, and the per-sweep stats rollup (see scripts/metrics_e2e.sh).
metrics-e2e:
	sh scripts/metrics_e2e.sh

# chaos reruns the crash e2e under the stock chaos fault spec: injected
# transient trial errors and panics (plus delays) that retry and panic
# isolation must absorb without changing the final report.
chaos:
	FAULT_SPEC=scripts/chaos_fault.json sh scripts/crash_e2e.sh

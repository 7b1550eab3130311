# Convenience targets; everything is stdlib-only `go` commands.

.PHONY: check test harness bench perf figures chaos examples tools fuzz vet race trace count allocs

# Everything the chaos and trace targets write lands here (gitignored).
OUT := .farm-out

# Default local gate: static checks, the full suite (including the
# 100-machine scale run in internal/perf), the race detector, a
# multi-seed nemesis campaign with every fault kind enabled, traced
# smoke runs whose exports are schema-validated, then every example
# (examples/bank and examples/powerfail exit non-zero when their closing
# invariant fails), a short run of every tool, and ten seconds of every fuzz
# target. CI runs the same targets split across parallel jobs (check / chaos
# / perf) in .github/workflows/check.yml.
check: vet test harness race chaos trace examples tools fuzz

test:
	go test ./...

# The benchmark harness is a nested module (benchmark/go.mod), so the root
# `go test ./...` skips it — yet it compiles against core/kv/ring/nvram's
# exported signatures and reads counters by name. Vet it and run its
# toy-scale workloads (~20 s) whenever those may have moved.
harness:
	cd benchmark && go vet ./... && go test ./...

short:
	go test -short ./...

bench:
	go test -bench . -benchmem -run XXX ./internal/sim ./internal/fabric ./internal/proto ./internal/ring ./internal/audit ./internal/kv ./internal/btree .

# Simulator performance gate: re-measure the scale suite (TATP and bank
# at 9, 50 and 100 machines: six points, plus a backup kill and a CM kill
# at 9) and compare against the committed BENCH_sim.json — fails on a
# >10% growth in committed-tx p99, msgs/tx or a kill point's
# config-commit or throughput-back time (all deterministic, so the gate
# never fires on host noise) or any steady-state engine allocation. Events/sec is printed, not
# gated: it is wall-clock, and a wall-time claim needs paired runs.
# Prints the fresh-vs-committed table; the fresh report lands in
# BENCH_sim.fresh.json (gitignored; CI uploads it on failure). Refresh
# the baseline after a deliberate change with
# `go run ./cmd/farm-perf -update`.
perf:
	go run ./cmd/farm-perf -out BENCH_sim.fresh.json

figures:
	go run ./cmd/farm-bench -fig all

# Nemesis campaign: 20 seeds of mixed faults with state-integrity audits
# after every heal and the strict-serializability history checker judging
# every run, an injected-corruption run proving detect→localize→repair,
# plus a determinism replay. The -bug-validation run breaks OCC read
# validation on purpose: it MUST fail (hence the `!`), and farm-histcheck
# must independently convict its history dump — the checker's teeth are
# themselves under test. Narrow with -faults (e.g. `go run
# ./cmd/farm-chaos -faults oneway,gray`) and reproduce any reported seed
# with `-replay <seed>`; violating runs leave their history dumps in
# ./chaos-failures.
chaos:
	go run ./cmd/farm-chaos -runs 20
	go run ./cmd/farm-chaos -runs 1 -corrupt
	go run ./cmd/farm-chaos -replay 1
	! go run ./cmd/farm-chaos -runs 1 -bug-validation -histdump $(OUT)/bugval
	! go run ./cmd/farm-histcheck $(OUT)/bugval/seed-1.history.json
	go test -race -run TestRunIsDeterministic ./internal/chaos

# Traced smoke runs: a fault-free bank run and a Figure 9 recovery run,
# each exported as Chrome trace_event JSON and schema-validated by the
# tool itself (-check, on by default) — the recovery run must contain
# every commit phase and every §5 recovery step.
trace:
	mkdir -p $(OUT)
	go run ./cmd/farm-trace -seed 1 -workload bank -sample 8 -out $(OUT)/trace-bank.json
	go run ./cmd/farm-trace -seed 1 -workload recovery -out $(OUT)/trace-recovery.json

examples:
	go run ./examples/quickstart
	go run ./examples/bank
	go run ./examples/powerfail
	go run ./examples/recovery
	go run ./examples/tatp

# Smoke runs of the load, recovery and figure tools: every workload
# farm-loadgen knows at a 2 ms window, a short backup failure and a short
# CM failover (~10 s), the loss of one failure domain (~8 s: three machines
# die and six regions are re-placed), two quick figures — and an unknown
# figure name, which must fail.
tools:
	for w in tatp tpcc kv bank; do go run ./cmd/farm-loadgen -workload $$w -warm 1ms -measure 2ms || exit 1; done
	go run ./cmd/farm-recovery -run 60ms -plot=false
	go run ./cmd/farm-recovery -victim cm -run 60ms -plot=false
	go run ./cmd/farm-recovery -victim domain -run 60ms -plot=false
	go run ./cmd/farm-bench -fig 1
	go run ./cmd/farm-bench -fig kv
	! go run ./cmd/farm-bench -fig nope

# Where a transaction's allocations come from: the mix allocation budgets
# of bank, tatp, tpcc and ycsb (each a warmed window of the package's Mix,
# or ycsb's LookupOp, the benchmark's shape scaled down) run under an exact allocation profile
# (-memprofilerate 1), and the sites inside the measured window (loadgen's
# allocWindow) print per committed operation, most first. Profiles and test
# binaries land in $(OUT). Not part of check.
allocs:
	@mkdir -p $(OUT)
	@for p in bank tatp tpcc ycsb; do \
		ops=$$(go test -run 'MixAllocationBudget' -v -o $(OUT)/$$p.test -memprofile $(OUT)/allocs-$$p.prof \
			-memprofilerate 1 ./internal/$$p | sed -n 's/.* over \([0-9]*\) committed.*/\1/p'); \
		[ -n "$$ops" ] || exit 1; \
		echo "$$p: allocations per committed operation by site, over $$ops operations"; \
		go tool pprof -sample_index=alloc_objects -focus=allocWindow -top -nodecount=12 $(OUT)/allocs-$$p.prof 2>/dev/null | \
			awk -v n=$$ops '$$1 ~ /^[0-9]/ && $$2 ~ /%$$/ { printf "  %8.3f  %s\n", $$1/n, $$6 }'; \
	done

# Ten seconds of coverage-guided fuzzing per target, one `go test -fuzz`
# each (go runs one fuzz target at a time): the log-record decoder, the
# history loader, the paged ring reader over arbitrary ring bytes next to
# its flat oracle (NewReader), a ring writer into a paged ring, read by a
# paged reader and the flat oracle, under a schedule of appends, link cuts
# and heals, polls, truncations and consumption updates (acks in psn order,
# every frame acked OK handed out, the two readers in agreement), and a
# block-materialized region against a
# flat one under a schedule of header writes, locks, digest-aware commits,
# straddling reads and writes, and allocator claims and frees. A failing
# input lands in the package's testdata/fuzz/ and replays with plain
# `go test` from then on.
fuzz:
	go test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/history
	go test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 10s ./internal/ring
	go test -run '^$$' -fuzz '^FuzzWriter$$' -fuzztime 10s ./internal/ring
	go test -run '^$$' -fuzz '^FuzzRegion$$' -fuzztime 10s ./internal/regionmem

# The design-diet ledger (ROADMAP, CHANGES.md): four sizes of internal/core,
# the size of internal/ring, the size of the tools and experiment drivers
# around them, and the object free lists written by hand instead of with
# internal/pool (a slice-of-pointer field named *Free or free, or a
# len(...Free) pop, counted once per package and name; the size-classed
# byte pools and regionmem's offset lists are not object lists), and the
# pool.Free fields of core.Machine, one per pooled kind of object, which a
# simplification should move down and nothing should move up unnoticed.
# Plain grep/sed/wc over the source.
CORE := internal/core
count:
	@echo "core non-test lines:    $$(ls $(CORE)/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "ring non-test lines:    $$(ls internal/ring/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "core.Options fields:    $$(sed -n '/^type Options struct {/,/^}/p' $(CORE)/core.go | grep -c '^	[A-Z]')"
	@echo "map fields in Machine, cmState, logReader, leaseManager, recoveryState, regionRecovery, recTx, voteCollector: $$( \
		{ sed -n '/^type Machine struct {/,/^}/p;/^type logReader struct {/,/^}/p' $(CORE)/machine.go; \
		  sed -n '/^type cmState struct {/,/^}/p' $(CORE)/cm.go; \
		  sed -n '/^type leaseManager struct {/,/^}/p' $(CORE)/lease.go; \
		  sed -n '/^type recoveryState struct {/,/^}/p;/^type regionRecovery struct {/,/^}/p;/^type recTx struct {/,/^}/p;/^type voteCollector struct {/,/^}/p' $(CORE)/recovery.go; \
		} | grep -v '^[[:space:]]*//' | grep -c 'map\[')"
	@echo "sorted-keys call sites: $$(ls $(CORE)/*.go | grep -v _test.go | xargs grep -h '[A-Za-z0-9]Keys(' | grep -v '^func \|^[[:space:]]*//' | wc -l)"
	@echo "cmd, examples, exper, perf non-test lines: $$(find cmd examples internal/exper internal/perf -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "pool.Free fields in Machine: $$(sed -n '/^type Machine struct {/,/^}/p' $(CORE)/machine.go | grep -c 'pool\.Free\[')"
	@echo "hand-written free lists: $$(grep -rEo --include='*.go' --exclude='*_test.go' \
		'\b([A-Za-z0-9_]*Free|free)[[:space:]]+\[\]\*|len\(\*?([A-Za-z0-9_]+\.)*([A-Za-z0-9_]*Free|free)\)' internal cmd examples | \
		grep -v '^internal/pool/\|^internal/regionmem/' | \
		sed -E 's#^(.*)/[^/]*\.go:(len\(\*?([A-Za-z0-9_]+\.)*)?([A-Za-z0-9_]*Free|free).*#\1 \4#' | sort -u | wc -l)"

# gofmt -l only lists; a listed file must fail the target.
vet:
	go vet ./...
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# The chaos campaign under the race detector legitimately needs more
# than go test's default 10m package budget.
race:
	go test -race -timeout 30m ./...

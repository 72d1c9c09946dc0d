GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet fmt-check fma-check lint lint-fixtures spec-validate bench benchdiff bench-smoke bench-gate fleet-smoke replay-smoke examples-smoke fuzz-smoke property soak-smoke perfbench-selftest ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt gate over the root module's Go files. perfbench/ is a module of
# its own (the repo benchmark) and is left out, with its build directory.
fmt-check:
	@files=$$(gofmt -l $$(find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*')); \
	if [ -n "$$files" ]; then echo "gofmt -l flags:"; echo "$$files"; exit 1; fi

# Cross-architecture bit-identity guard. The Go spec lets a compiler fuse
# x*y + z into one rounding. amd64 never does, but arm64, ppc64le, s390x,
# riscv64 and loong64 do, and a fused campaign misses every pinned hash.
# An explicit float64(x*y) conversion must round, which forbids the
# fusion. This builds the module for those five arches with -S (a warm
# build cache replays the listing) and fails on any fused multiply-add in
# the listing's instruction column. It needs no emulator.
FMA_ARCHES := arm64 ppc64le s390x riscv64 loong64
FMA_CHECK_FILE := $(if $(TMPDIR),$(TMPDIR),/tmp)/hpm-fma-check.S
fma-check:
	@fail=0; for arch in $(FMA_ARCHES); do \
		GOARCH=$$arch $(GO) build -gcflags='repro/...=-S' ./... > $(FMA_CHECK_FILE) 2>&1 || { cat $(FMA_CHECK_FILE); rm -f $(FMA_CHECK_FILE); exit 1; }; \
		awk -F'\t' -v arch=$$arch '$$3 ~ /^FN?M(ADD|SUB)[DS]?$$/ { print arch ": " $$2 " " $$3; n++ } \
			END { printf "%s: %d fused multiply-add instruction(s)\n", arch, n; exit n > 0 }' $(FMA_CHECK_FILE) || fail=1; \
	done; rm -f $(FMA_CHECK_FILE); exit $$fail

# Baseline-gated: only findings absent from the committed (empty) baseline
# fail, so the gate is a ratchet — accepted debt is written down, anything
# new is an error.
lint:
	$(GO) run ./cmd/hpmlint -baseline .hpmlint-baseline.json ./...

# The violation fixtures must keep producing findings; a linter that goes
# quiet is worse than no linter. -expect compares exact per-fixture,
# per-rule counts against the committed golden file, so a linter that
# fails to build (or an analyzer that is silently neutered) fails the
# gate — the old `! hpmlint` form counted both as a pass.
lint-fixtures:
	cd internal/lint && $(GO) run ../../cmd/hpmlint -expect testdata/fixture_counts.json ./testdata/src/...

# Validate every committed workload-spec preset through the real CLI
# path (load, decode, field-path validation). Exit 2 on the first
# malformed spec, matching the hpmlint convention.
spec-validate:
	$(GO) run ./cmd/spsim -validate

# One pass over every paper benchmark; the human-readable run streams to
# the terminal and the parsed table lands in BENCH_campaign.json.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/benchjson -o BENCH_campaign.json

# Re-run the paper benchmarks and print per-benchmark deltas against the
# committed baseline without overwriting it. Informational: single-pass
# timings are noisy, so benchdiff only fails on build/run errors.
benchdiff:
	$(GO) test -run '^$$' -bench . -benchtime 1x . | $(GO) run ./cmd/benchjson -o '' -diff BENCH_campaign.json

# Quick smoke: one iteration of the microsim + campaign-day benchmarks,
# one op of the per-kernel microsim layer bench and of the rs2hpm wire
# benches, just to prove the bench harnesses still build and run (used
# by CI).
bench-smoke:
	$(GO) test -run '^$$' -bench 'CPUSimulation|CampaignDay' -benchtime 1x . | $(GO) run ./cmd/benchjson -o '' -diff BENCH_campaign.json
	$(GO) test -run '^$$' -bench 'KernelSim' -benchtime 1x ./internal/kernels
	$(GO) test -run '^$$' -bench 'Batch' -benchtime 1x ./internal/rs2hpm
	$(GO) test -run '^$$' -bench 'PBSDay' -benchtime 1x ./internal/pbs

# Regression gate: re-run the hot-path benchmarks and enforce the
# committed tolerances/ratios in BENCH_gates.json against the committed
# baseline. Unlike benchdiff this is pass/fail — a CampaignDay, fleet or
# telemetry-overhead regression beyond the (deliberately generous,
# single-iteration-noise-tolerant) bounds fails `make ci`. Only the
# campaign-scale benches are gated: their single pass does real work
# (tens of ms), so the timing is signal; micro benches at -benchtime 1x
# measure setup noise and stay diff-only.
bench-gate:
	$(GO) test -run '^$$' -bench 'CampaignDay|FleetCampaign|MeasureStandardCold|CollectorThroughput' -benchtime 1x . | $(GO) run ./cmd/benchjson -o '' -diff BENCH_campaign.json -gate BENCH_gates.json

# Differential smoke of the fleet engine's checkpoint journal through the
# real CLI: run a 2-cluster fleet sharded 2 ways uninterrupted, exporting
# its database; run it again halted after the first cluster completes;
# tear the journal's last append as a kill would (cut its last 100
# bytes); resume to completion, exporting the database again; and require
# the two databases to be byte-identical. cmp is the whole proof.
FLEET_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)
FLEET_SMOKE_FILES := $(FLEET_SMOKE_DIR)/hpm-fleet-smoke.json.gz $(FLEET_SMOKE_DIR)/hpm-fleet-whole.json $(FLEET_SMOKE_DIR)/hpm-fleet-resumed.json
fleet-smoke:
	rm -f $(FLEET_SMOKE_FILES)
	$(GO) run ./cmd/spsim -days 2 -clusters 2 -shards 2 -o $(FLEET_SMOKE_DIR)/hpm-fleet-whole.json
	$(GO) run ./cmd/spsim -days 2 -clusters 2 -shards 2 -checkpoint $(FLEET_SMOKE_DIR)/hpm-fleet-smoke.json.gz -halt-after 1
	truncate -s -100 $(FLEET_SMOKE_DIR)/hpm-fleet-smoke.json.gz
	$(GO) run ./cmd/spsim -days 2 -clusters 2 -shards 2 -checkpoint $(FLEET_SMOKE_DIR)/hpm-fleet-smoke.json.gz -resume -o $(FLEET_SMOKE_DIR)/hpm-fleet-resumed.json
	cmp $(FLEET_SMOKE_DIR)/hpm-fleet-whole.json $(FLEET_SMOKE_DIR)/hpm-fleet-resumed.json
	rm -f $(FLEET_SMOKE_FILES)

# Differential smoke of trace record/replay through the real CLI: record
# a 2-day campaign while exporting its database, replay the trace with
# the profiles measured at another width (-workers 3), and require the
# exported databases to be byte-identical. A second leg records a
# faulted 2-cluster fleet on 2 shards, so the trace carries fault tables,
# and replays it on 1 shard at -workers 3. cmp is the whole proof — any
# divergence fails.
REPLAY_SMOKE_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)
REPLAY_SMOKE_FILES := $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz $(REPLAY_SMOKE_DIR)/hpm-replay-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json \
	$(REPLAY_SMOKE_DIR)/hpm-replay-fleet.trace.gz $(REPLAY_SMOKE_DIR)/hpm-replay-fleet-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-fleet-replayed.json
replay-smoke:
	rm -f $(REPLAY_SMOKE_FILES)
	$(GO) run ./cmd/spsim -days 2 -seed 7 -record $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz -o $(REPLAY_SMOKE_DIR)/hpm-replay-live.json
	$(GO) run ./cmd/spsim -days 2 -seed 7 -workers 3 -replay $(REPLAY_SMOKE_DIR)/hpm-replay-smoke.trace.gz -o $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json
	cmp $(REPLAY_SMOKE_DIR)/hpm-replay-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-replayed.json
	$(GO) run ./cmd/spsim -days 2 -seed 7 -faults -clusters 2 -shards 2 -record $(REPLAY_SMOKE_DIR)/hpm-replay-fleet.trace.gz -o $(REPLAY_SMOKE_DIR)/hpm-replay-fleet-live.json
	$(GO) run ./cmd/spsim -days 2 -seed 7 -faults -clusters 2 -shards 1 -workers 3 -replay $(REPLAY_SMOKE_DIR)/hpm-replay-fleet.trace.gz -o $(REPLAY_SMOKE_DIR)/hpm-replay-fleet-replayed.json
	cmp $(REPLAY_SMOKE_DIR)/hpm-replay-fleet-live.json $(REPLAY_SMOKE_DIR)/hpm-replay-fleet-replayed.json
	rm -f $(REPLAY_SMOKE_FILES)

# Run every example under examples/ once; a non-zero exit fails. The
# examples are the runnable documentation of each subsystem, and nothing
# else executes their main packages.
examples-smoke:
	@for ex in examples/*/; do \
		echo "== $$ex"; \
		$(GO) run ./$$ex > /dev/null || { echo "$$ex failed"; exit 1; }; \
	done

# Short fuzzing pass over every fuzz target (committed corpora plus
# FUZZTIME of fresh exploration per target). go test allows one -fuzz
# pattern per invocation, so each target gets its own run.
# FuzzDatabaseDecode's seeds include whole campaign databases; the short
# -fuzzminimizetime keeps it from spending FUZZTIME shrinking one of them.
# FuzzDatabaseEncode's inputs are databases too, and get the same bound.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanInvariants$$' -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzEpilogueDelay$$' -fuzztime $(FUZZTIME) ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzProfileCacheDecode$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzMetricsEncode$$' -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzBaselineDecode$$' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^$$' -fuzz '^FuzzSpecDecode$$' -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDatabaseDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDatabaseEncode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzWireBatchDecode$$' -fuzztime $(FUZZTIME) ./internal/rs2hpm/
	$(GO) test -run '^$$' -fuzz '^FuzzCounterLine$$' -fuzztime $(FUZZTIME) ./internal/rs2hpm/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayDecode$$' -fuzztime $(FUZZTIME) ./internal/replay/

# Every property test in the tree, under the race detector.
property:
	$(GO) test -run Property -race ./...

# The collection-service soak suite under the race detector: wall-bounded
# runs against healthy/flaky/dead/slow fleets, leak-checked and with the
# sample ledger cross-footed exactly (internal/rs2hpm/loadtest).
soak-smoke:
	$(GO) test -race -run 'TestSoak' -count=1 ./internal/rs2hpm/loadtest/

# The repo benchmark is a module of its own (replace repro => ../), so
# the root build and test never compile it. Its self-test does, and
# fails if an API change in the root module broke the benchmark.
perfbench-selftest:
	cd perfbench && $(GO) test .

# Every step of the CI workflow's main job, in its order.
ci: build vet fmt-check fma-check test race lint lint-fixtures spec-validate bench-smoke bench-gate fleet-smoke replay-smoke examples-smoke soak-smoke perfbench-selftest

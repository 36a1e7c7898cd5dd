# Development targets for the MNP reproduction. Everything uses only
# the standard Go toolchain.

GO        ?= go
BENCH_OUT ?= BENCH_sim.json

FUZZTIME ?= 10s

.PHONY: build test race race-short race-engine vet fmt-check fuzz-short bench bench-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-short skips the long soak/golden simulations — the CI-friendly
# race pass.
race-short:
	$(GO) test -race -short ./...

# race-engine exercises the lockstep engine under the race detector:
# the engine, tile-partition, kernel and node unit tests (the window
# primitives and the model test: Reset against cancel-and-schedule, the
# queue against the reference kernel, both driven through plain and
# argument-form callbacks; a mote's timer and CSMA callbacks and the
# chunks its tile carves), the sharded
# experiment suite (one-tile-vs-strips equivalence at shards 1 and 4,
# determinism with inline and parallel workers, sharded chaos, strip
# orientation), the tiled suite (the grid x workers{1,2,4} equivalence
# matrix, the one-tile Build contract, tiled chaos, observer-replay
# ordering with parallel workers; every tile's motes share one
# network's timer and CSMA callbacks and carve from their own tile's
# chunks, raced through TestTiled), the
# mobility suite (the mobile equivalence matrix, churn chaos, and the
# static zero-cost check), and the sharded + mobile golden hashes
# (shards=4, workers 1 and 4). The barrier tests run a second time on
# one processor, so the path where waiters must hand the processor over
# (yield, then park) is raced on every push whatever the CI host's core
# count.
race-engine:
	$(GO) test -race ./internal/engine/ ./internal/sim/ ./internal/node/
	GOMAXPROCS=1 $(GO) test -race ./internal/engine/ -run 'Barrier'
	$(GO) test -race ./internal/experiment/ -run 'TestSetupValidate|TestSharded|TestTiled|TestMobility'
	$(GO) test -race . -run 'TestShardedRunMatchesGolden|TestMobileRunMatchesGolden'

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean (it lists them).
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# fuzz-short runs each native fuzz target for a fixed small budget
# (override with FUZZTIME=30s etc.). The go tool accepts one -fuzz
# target per invocation, hence one line per target. The targets carry
# no build tags (native fuzzing needs none), so plain `make vet`
# already type-checks every fuzz file.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzMNPPacketSequence' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolPackets' -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run '^$$' -fuzz 'FuzzRuntimeOps' -fuzztime $(FUZZTIME) ./internal/node/nodetest/
	$(GO) test -run '^$$' -fuzz 'FuzzRecordRoundTrip' -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz 'FuzzScenarioParse' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz 'FuzzPlanParse' -fuzztime $(FUZZTIME) ./internal/campaign/
	$(GO) test -run '^$$' -fuzz 'FuzzGridIndex' -fuzztime $(FUZZTIME) ./internal/topology/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexMoves' -fuzztime $(FUZZTIME) ./internal/topology/
	$(GO) test -run '^$$' -fuzz 'FuzzLinkRowRepair' -fuzztime $(FUZZTIME) ./internal/radio/
	$(GO) test -run '^$$' -fuzz 'FuzzTilePartition' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzRLNCDecode' -fuzztime $(FUZZTIME) ./internal/rlnc/
	$(GO) test -run '^$$' -fuzz 'FuzzRLNCEncode' -fuzztime $(FUZZTIME) ./internal/rlnc/
	$(GO) test -run '^$$' -fuzz 'FuzzKernelReset' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz 'FuzzStoreOps' -fuzztime $(FUZZTIME) ./internal/eeprom/

# bench runs the simulation-substrate micro-benchmarks plus the
# end-to-end Figure 8 regeneration and the sharded-engine scaling
# series, and appends the numbers (ns/op, B/op, allocs/op) as a
# history entry — keyed by git SHA and date — to $(BENCH_OUT), so the
# committed file accumulates a timeline across revisions. The
# micro-benchmarks get a large fixed iteration count so the lazily
# built radio tables amortize out (the kernel's nanosecond lines get a
# million, as in bench-smoke: at 2 000 they scattered by ±30 %); the
# Fig8 and engine runs are seconds per iteration, so a couple suffice. BenchmarkEngineBarrier
# is the engine layer's own micro-benchmark: the cost of one lockstep
# window over empty tiles ("ns/window") at 1, 2 and 4 workers.
# BenchmarkKernelSchedule's chain lines are a callback rescheduling
# itself against 1 024 pending events, alone and (chain-gc) beside a
# goroutine that keeps the collector's mark phase on.
# BenchmarkFleetBuild is fleet set-up per mote ("B/mote", "allocs/mote",
# "ns/mote") on a 10 000-mote Build; BenchmarkStoreFill is one 128x22
# segment written to a mote's flash model and read back. The rlnc lines
# are one 128x22 segment decoded, one coded frame drawn and encoded
# (against the table, and through the row-at-a-time reference loop the
# table replaced) and one segment tabulated.
bench: build
	@rm -f bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkMediumTransmit' \
		-benchmem -benchtime 2000x . | tee bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkKernelSchedule' \
		-benchmem -benchtime 1000000x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkGeometryBuild' \
		-benchmem -benchtime 20x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkFleetBuild|BenchmarkStoreFill' \
		-benchmem -benchtime 20x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkRLNCDecode|BenchmarkRLNCEncode' \
		-benchmem -benchtime 2000x ./internal/rlnc/ | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkIndexMove' \
		-benchmem -benchtime 2000x ./internal/topology/ | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkEngineBarrier' \
		-benchmem -benchtime 200000x ./internal/engine/ | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkFig8ActiveRadioTime$$' \
		-benchmem -benchtime 2x . | tee -a bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkEngineGrid' \
		-benchmem -benchtime 2x -timeout 30m . | tee -a bench.out
	$(GO) run ./tools/benchjson -out $(BENCH_OUT) < bench.out
	@echo "appended to $(BENCH_OUT)"

# bench-smoke is the CI-sized slice of `make bench`: the tiled
# engine-grid series (2x2, 4x4, 4x4 mobile), one iteration per config, appended to the same SHA-keyed
# $(BENCH_OUT) history. The tiled lines carry the custom "imbalance"
# metric, so every revision records a balance datapoint without paying
# for the full micro-benchmark sweep. The barrier micro-benchmark
# ("ns/window") and the kernel's schedule/fire/re-arm/chain cycles ride
# along: each takes under a second, and a million iterations keep the
# nanosecond lines out of the timer's noise.
bench-smoke: build
	@rm -f bench-smoke.out
	$(GO) test -run '^$$' -bench 'BenchmarkEngineBarrier' \
		-benchmem -benchtime 200000x ./internal/engine/ | tee bench-smoke.out
	$(GO) test -run '^$$' -bench 'BenchmarkKernelSchedule' \
		-benchmem -benchtime 1000000x . | tee -a bench-smoke.out
	$(GO) test -run '^$$' -bench 'BenchmarkEngineGrid/tiles' \
		-benchmem -benchtime 1x -timeout 40m . | tee -a bench-smoke.out
	$(GO) run ./tools/benchjson -out $(BENCH_OUT) < bench-smoke.out
	@echo "appended to $(BENCH_OUT)"

clean:
	rm -f bench.out bench-smoke.out $(BENCH_OUT)

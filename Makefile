# Development targets for the MNP reproduction. Everything uses only
# the standard Go toolchain.

GO ?= go

FUZZTIME ?= 10s

.PHONY: build test race race-short race-engine vet fmt-check fuzz-short

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
	$(GO) test -run '^$$' -fuzz 'FuzzFaultPlan' -fuzztime $(FUZZTIME) ./internal/experiment/
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

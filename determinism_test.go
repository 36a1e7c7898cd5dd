package mnp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/faults"
	"mnp/internal/scenario"
	"mnp/internal/topology"
)

// Golden SHA-256 digests of the Figure 8 report, captured from the seed
// revision of the simulator (before the performance work on the radio,
// kernel, and codec paths). The optimizations are required to be
// behavior-preserving down to the byte: same RNG draw order, same
// floating-point values, same report text. If one of these hashes
// changes, a supposedly transparent optimization altered simulation
// behavior.
var goldenF8 = map[int64]string{
	42: "d126b3620a7dac127751c6766b620551c160832377662105551fdc68654c57c2",
	7:  "898a48d7d86d2adbca0895a0e3a46239fd69621f01e43000fc5275c7ce219b1f",
}

func TestF8ReportMatchesSeedRevision(t *testing.T) {
	if testing.Short() {
		t.Skip("full F8 simulation in -short mode")
	}
	for seed, want := range goldenF8 {
		out, err := RunExperiment("F8", seed)
		if err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(sumOf(out))
		if got != want {
			t.Errorf("F8 seed %d report hash = %s, want %s (simulation behavior changed)", seed, got, want)
		}
	}
}

// goldenChaos pins the full per-node outcome of a crash+reboot run at
// seed 42: fault plans draw from their own seeded RNG, so a faulted
// run must be exactly as reproducible as a clean one. If this hash
// changes, either the fault-injection layer started consuming shared
// randomness or a behavior-preserving change wasn't.
const goldenChaos = "2511afdd862ab59f133526dcb034d110cabb917b5eb0ad88ec1affe86e7f192a"

func TestChaosRunMatchesGolden(t *testing.T) {
	res, err := experiment.Run(experiment.Setup{
		Name: "chaos-golden", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Limit: 6 * time.Hour,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.CrashReboot(15, 30*time.Second, 10*time.Second),
			faults.EEPROMErrors(faults.Wildcard, 0.02, 0, 0),
		}},
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v at=%v\n", res.Completed, res.CompletionTime)
	for _, n := range res.Network.Nodes {
		fmt.Fprintf(&b, "%v dead=%v completed=%v at=%v slots=%d faults=%d\n",
			n.ID(), n.Dead(), n.Completed(), n.CompletedAt(),
			n.EEPROM().Slots(), n.EEPROM().FaultCount())
	}
	if got := hex.EncodeToString(sumOf(b.String())); got != goldenChaos {
		t.Errorf("chaos run report hash = %s, want %s (fault injection is no longer deterministic)\n%s",
			got, goldenChaos, b.String())
	}
}

// TestScenarioCompiledChaosMatchesGolden runs the chaos-golden
// deployment compiled from a declarative scenario document instead of
// a hand-written Setup. The resulting simulation must be byte-for-byte
// the run pinned by goldenChaos: the scenario layer is configuration
// plumbing and may not perturb a single RNG draw.
func TestScenarioCompiledChaosMatchesGolden(t *testing.T) {
	doc := `
version = 1
name = "chaos-golden"
faults = "reboot:15@30s+10s; eeprom:*:0.02"
[topology]
kind = "grid"
rows = 4
cols = 4
[run]
seed = 42
image_packets = 128
limit = "6h"
shards = 1
[invariants]
enabled = true
`
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v at=%v\n", res.Completed, res.CompletionTime)
	for _, n := range res.Network.Nodes {
		fmt.Fprintf(&b, "%v dead=%v completed=%v at=%v slots=%d faults=%d\n",
			n.ID(), n.Dead(), n.Completed(), n.CompletedAt(),
			n.EEPROM().Slots(), n.EEPROM().FaultCount())
	}
	if got := hex.EncodeToString(sumOf(b.String())); got != goldenChaos {
		t.Errorf("scenario-compiled chaos run hash = %s, want %s (scenario compilation perturbs the simulation)\n%s",
			got, goldenChaos, b.String())
	}
}

// goldenSharded pins the full per-node outcome of a sharded run at a
// fixed (seed, shard count): sharded execution is a deterministic pure
// function of that pair, independent of worker count, host CPU count,
// and wall-clock scheduling. If this hash changes, the lockstep engine
// picked up a source of nondeterminism (goroutine-order-dependent
// ghost exchange, unseeded randomness) or a behavior-affecting change
// to the sharded path landed without updating the golden.
const goldenSharded = "cded8d711e22533c8fdf1aa1d4d3d181203ef2ae5f31dea5ad487870095f1268"

func TestShardedRunMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sharded simulations in -short mode")
	}
	// Inline and parallel workers must produce the same bytes.
	for _, workers := range []int{1, 4} {
		res, err := experiment.Run(experiment.Setup{
			Name: "sharded-golden", Rows: 8, Cols: 8, ImagePackets: 64, Seed: 42,
			Shards: 4, Workers: workers, Limit: 4 * time.Hour,
			Invariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		snap := res.Collector.Snapshot(res.CompletionTime)
		var b strings.Builder
		fmt.Fprintf(&b, "completed=%v at=%v tx=%d rx=%d collisions=%d senders=%d\n",
			res.Completed, res.CompletionTime, snap.Tx, snap.Rx, snap.Collisions, snap.SenderEvents)
		for _, n := range res.Network.Nodes {
			fmt.Fprintf(&b, "%v completed=%v at=%v slots=%d\n",
				n.ID(), n.Completed(), n.CompletedAt(), n.EEPROM().Slots())
		}
		if got := hex.EncodeToString(sumOf(b.String())); got != goldenSharded {
			t.Errorf("workers=%d: sharded report hash = %s, want %s (sharded execution is no longer a pure function of (seed, shards))\n%s",
				workers, got, goldenSharded, b.String())
		}
	}
}

func sumOf(s string) []byte {
	h := sha256.Sum256([]byte(s))
	return h[:]
}

// goldenMobile pins the full per-node outcome of a mobile run: a
// gossip dissemination over a 2×2 tile grid with every node on a
// seeded random-waypoint walk, positions updated at engine barriers.
// Mobile execution must be exactly as reproducible as static — a pure
// function of (seed, tile grid), independent of worker count. If this
// hash changes, the mobility layer picked up a source of
// nondeterminism (wall-clock sampling, unseeded trajectories,
// mid-window position writes) or a behavior-affecting change landed
// without updating the golden.
const goldenMobile = "140ab359e499979d7ded0d7aeb358a6378f6b95b4608cd7bcf898d1258ebbf04"

func TestMobileRunMatchesGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := experiment.Run(experiment.Setup{
			Name: "mobile-golden", Rows: 6, Cols: 6, ImagePackets: 64, Seed: 42,
			Protocol: experiment.ProtocolGossip, Limit: 4 * time.Hour,
			TileRows: 2, TileCols: 2, Shards: 4, Workers: workers,
			MobilityEvery: 2 * time.Second,
			Mobility: func(l *topology.Layout, seed int64) (topology.Mobility, error) {
				return topology.NewWaypoint(l, topology.WaypointConfig{
					SpeedMin: 1, SpeedMax: 3, Pause: 5 * time.Second, Seed: seed,
				})
			},
			Invariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("workers=%d: incomplete", workers)
		}
		if err := res.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		snap := res.Collector.Snapshot(res.CompletionTime)
		var b strings.Builder
		fmt.Fprintf(&b, "completed=%v at=%v tx=%d rx=%d collisions=%d senders=%d\n",
			res.Completed, res.CompletionTime, snap.Tx, snap.Rx, snap.Collisions, snap.SenderEvents)
		for _, n := range res.Network.Nodes {
			fmt.Fprintf(&b, "%v completed=%v at=%v slots=%d\n",
				n.ID(), n.Completed(), n.CompletedAt(), n.EEPROM().Slots())
		}
		if got := hex.EncodeToString(sumOf(b.String())); got != goldenMobile {
			t.Errorf("workers=%d: mobile report hash = %s, want %s (mobile execution is no longer a pure function of (seed, grid))\n%s",
				workers, got, goldenMobile, b.String())
		}
	}
}

// goldenRLNC pins the full per-node outcome of a coded run: a 2×8
// corridor at 15 ft spacing, two 128-packet segments relayed hop by
// hop. The other goldens are all MNP or gossip, and the bench's sim_*
// metrics carry neither the decode-op count nor the energy ledger, so
// this is the hash that says a change to internal/rlnc's arithmetic
// (elimination order, encoder, coefficient draws) left every frame on
// the air, every charged row operation and every flushed byte alone.
// Recorded on 8751253, before the single-pass decoder and the
// Four-Russians encoder landed.
const goldenRLNC = "29289068d8c118abbedd737444a00dcace99f62895e5b1159225545de7b9bb06"

func TestRLNCRunMatchesGolden(t *testing.T) {
	res, err := experiment.Run(experiment.Setup{
		Name: "rlnc-golden", Rows: 2, Cols: 8, Spacing: 15, ImagePackets: 256, Seed: 42,
		Protocol: experiment.ProtocolRLNC, Limit: 6 * time.Hour,
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	snap := res.Collector.Snapshot(res.CompletionTime)
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v at=%v tx=%d rx=%d collisions=%d decodeOps=%d eepromWritten=%d\n",
		res.Completed, res.CompletionTime, snap.Tx, snap.Rx, snap.Collisions,
		snap.DecodeOps, snap.EEPROMWriteBytes)
	for _, n := range res.Network.Nodes {
		l := res.Collector.Ledger(n.ID(), res.CompletionTime)
		fmt.Fprintf(&b, "%v completed=%v at=%v tx=%d rx=%d decodeOps=%d eepromWrites=%d slots=%d used=%d\n",
			n.ID(), n.Completed(), n.CompletedAt(), l.TxPackets, l.RxPackets,
			l.DecodeRowOps, l.EEPROMWrites, n.EEPROM().Slots(), n.EEPROM().Used())
	}
	if got := hex.EncodeToString(sumOf(b.String())); got != goldenRLNC {
		t.Errorf("rlnc run report hash = %s, want %s (the coding layer changed what it sends, counts or stores)\n%s",
			got, goldenRLNC, b.String())
	}
}

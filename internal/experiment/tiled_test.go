package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"mnp/internal/engine"
	"mnp/internal/faults"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// tiledDigest runs a setup and folds the complete observable outcome —
// completion verdict and time, aggregate traffic, and every node's
// (completed, time, slots) row — into one hash, the same shape the
// root goldenSharded test pins. Two runs with equal digests reached
// byte-identical simulation states.
func tiledDigest(t *testing.T, s Setup) (string, *Result) {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if !res.Completed {
		t.Fatalf("%s: incomplete: %d/%d", s.Name, res.Network.CompletedCount(), res.Layout.N())
	}
	if res.Invariants != nil {
		if err := res.VerifyInvariants(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	snap := res.Collector.Snapshot(res.CompletionTime)
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v at=%v tx=%d rx=%d collisions=%d senders=%d\n",
		res.Completed, res.CompletionTime, snap.Tx, snap.Rx, snap.Collisions, snap.SenderEvents)
	for _, n := range res.Network.Nodes {
		fmt.Fprintf(&b, "%v completed=%v at=%v slots=%d\n",
			n.ID(), n.Completed(), n.CompletedAt(), n.EEPROM().Slots())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), res
}

// TestTiledEquivalenceMatrix is the headline determinism property of
// the tiled engine: for a fixed (seed, tile grid), the simulation
// outcome is byte-identical across every worker count and every
// executor count — scheduling is pure mechanism, never policy that
// leaks into results. The 1×1 grid
// routes down the sequential path and so also proves the tile plumbing
// adds nothing to a plain run.
func TestTiledEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("36-cell simulation matrix in -short mode")
	}
	grids := []engine.Grid{{Rows: 1, Cols: 1}, {Rows: 2, Cols: 2}, {Rows: 4, Cols: 2}, {Rows: 4, Cols: 4}}
	for _, g := range grids {
		for _, seed := range []int64{42, 7, 99} {
			want := ""
			for _, workers := range []int{1, 2, 4} {
				s := Setup{
					Name: fmt.Sprintf("tiled-matrix-%s-s%d-w%d", g, seed, workers),
					Rows: 6, Cols: 6, ImagePackets: 32, Seed: seed,
					Limit:    3 * time.Hour,
					TileRows: g.Rows, TileCols: g.Cols,
					Shards: 4, Workers: workers,
				}
				if g.Tiles() == 1 {
					s.Shards = 1
				}
				dig, res := tiledDigest(t, s)
				if want == "" {
					want = dig
				} else if dig != want {
					t.Fatalf("grid %s seed %d workers %d: digest %s, want %s — results are not a pure function of (seed, grid)",
						g, seed, workers, dig, want)
				}
				if g.Tiles() == 1 {
					if res.Engine != nil {
						t.Fatalf("1x1 grid did not take the sequential path")
					}
					continue
				}
				if res.Engine == nil {
					t.Fatalf("grid %s run skipped the engine", g)
				}
				if res.TileGrid != g {
					t.Fatalf("ran grid %s, asked for %s", res.TileGrid, g)
				}
			}
			// Executor count is a scheduling knob too: re-run one cell of
			// each multi-tile grid with 2 executors instead of 4.
			if g.Tiles() > 1 {
				s := Setup{
					Name: fmt.Sprintf("tiled-matrix-%s-s%d-x2", g, seed),
					Rows: 6, Cols: 6, ImagePackets: 32, Seed: seed,
					Limit:    3 * time.Hour,
					TileRows: g.Rows, TileCols: g.Cols,
					Shards: 2, Workers: 2,
				}
				if dig, _ := tiledDigest(t, s); dig != want {
					t.Fatalf("grid %s seed %d: 2-executor digest %s, want %s — executor count leaked into results",
						g, seed, dig, want)
				}
			}
		}
	}
}

// TestTiledValidate covers the tile-specific validation Build applies:
// grid shape, tile budget, and executor bounds.
func TestTiledValidate(t *testing.T) {
	valid := Setup{Name: "v", Rows: 4, Cols: 4, Spacing: 10, Shards: 2, TileRows: 2, TileCols: 2}
	cases := []struct {
		name    string
		mutate  func(*Setup)
		wantErr string
	}{
		{"valid-tiles", func(s *Setup) {}, ""},
		{"negative-rows", func(s *Setup) { s.TileRows = -1 }, "non-negative"},
		{"one-sided-grid", func(s *Setup) { s.TileCols = 0 }, "both rows and cols"},
		{"too-many-tiles", func(s *Setup) { s.TileRows, s.TileCols = 5, 5 }, "tiles"},
		{"shards-exceed-tiles", func(s *Setup) { s.Shards = 5 }, "exceed"},
		{"shards-unset", func(s *Setup) { s.Shards = 0 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.mutate(&s)
			err := s.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestTiledShardsDefaultToOnePerTile pins the default executor count
// on a tile grid: Shards unset is the engine's one executor per tile,
// so Workers can spread the tiles instead of being capped at one.
func TestTiledShardsDefaultToOnePerTile(t *testing.T) {
	res, err := Build(Setup{Name: "tiled-default-shards", Rows: 4, Cols: 4, ImagePackets: 8,
		TileRows: 2, TileCols: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine == nil || res.Engine.Executors() != 4 {
		t.Fatalf("engine = %v, want 4 executors on the 2x2 grid", res.Engine)
	}
}

// TestTiledChaosPartitionHeal ports the partition+heal chaos scenario
// to 2D tile grids: the fault window must quantize onto barriers, the
// isolated half must stall until the heal, and every invariant must
// hold through the replayed observation stream — exactly as on strips.
func TestTiledChaosPartitionHeal(t *testing.T) {
	cut := []packet.NodeID{8, 9, 10, 11, 12, 13, 14, 15}
	for _, g := range []engine.Grid{{Rows: 2, Cols: 2}, {Rows: 4, Cols: 4}} {
		t.Run(g.String(), func(t *testing.T) {
			res := conform(t, Setup{
				Name: "chaos-partition-tiled-" + g.String(),
				Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
				TileRows: g.Rows, TileCols: g.Cols, Shards: 4, Workers: 1,
				Faults: &faults.Plan{Events: []faults.Event{
					faults.Partition(cut, 10*time.Second, 90*time.Second),
				}},
			}, verdict{}, nil)
			if res.Engine == nil || res.TileGrid != g {
				t.Fatalf("run did not go through the %s tile engine", g)
			}
			if res.CompletionTime <= 90*time.Second {
				t.Fatalf("completed at %v, inside the partition window", res.CompletionTime)
			}
		})
	}
}

// TestTiledChaosCrashDuringForward kills two mid-grid forwarders with
// the deployment split into 2×2 tiles; conform holds the survivors to
// convergence and the dead to exactly the crashed pair.
func TestTiledChaosCrashDuringForward(t *testing.T) {
	res := conform(t, Setup{
		Name: "chaos-crash-tiled", Rows: 5, Cols: 5, ImagePackets: 128, Seed: 42,
		TileRows: 2, TileCols: 2, Shards: 4, Workers: 1,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Crash(6, 40*time.Second),
			faults.Crash(12, 70*time.Second),
		}},
	}, verdict{}, nil)
	if res.Engine == nil {
		t.Fatal("run did not go through the tile engine")
	}
}

// orderObserver asserts the replayed global observation stream is
// totally ordered by (time, node): timestamps never run backwards, and
// within one timestamp node IDs never decrease. Storage operations
// carry no timestamp and are skipped.
type orderObserver struct {
	t      *testing.T
	lastAt time.Duration
	lastID packet.NodeID
	events int
}

func (o *orderObserver) check(id packet.NodeID, at time.Duration) {
	o.events++
	if at < o.lastAt {
		o.t.Errorf("observer replay ran backwards: %v after %v", at, o.lastAt)
	} else if at == o.lastAt && id < o.lastID {
		o.t.Errorf("observer replay at %v visited node %v after %v", at, id, o.lastID)
	}
	o.lastAt, o.lastID = at, id
}

func (o *orderObserver) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	o.check(id, at)
}
func (o *orderObserver) RadioState(id packet.NodeID, at time.Duration, on bool) {
	o.check(id, at)
}
func (o *orderObserver) StorageOp(packet.NodeID, bool, int, int, int) {}

// TestTiledObserverReplayOrder is the ordering regression test for
// barrier replay: with parallel workers and a mid-run crash, a single
// global observer must still see one stream sorted by (time, node) —
// tiles run on different workers must not reorder or tear their
// buffered observations.
func TestTiledObserverReplayOrder(t *testing.T) {
	obs := &orderObserver{t: t}
	res, err := Run(Setup{
		Name: "tiled-replay-order", Rows: 6, Cols: 6, ImagePackets: 32, Seed: 7,
		Limit:    3 * time.Hour,
		TileRows: 4, TileCols: 4, Shards: 4, Workers: 4,
		Observer: obs,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Crash(14, 50*time.Second),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if obs.events == 0 {
		t.Fatal("global observer saw no events")
	}
}

package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mnp/internal/engine"
	"mnp/internal/protoreg"
)

// outcomeDigest hashes a finished run's observable outcome — verdict,
// completion time, aggregate traffic, every node's row — whoever drove
// it.
func outcomeDigest(res *Result) string {
	snap := res.Collector.Snapshot(res.CompletionTime)
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v at=%v tx=%d rx=%d collisions=%d senders=%d\n",
		res.Completed, res.CompletionTime, snap.Tx, snap.Rx, snap.Collisions, snap.SenderEvents)
	for _, n := range res.Network.Nodes {
		fmt.Fprintf(&b, "%v completed=%v at=%v slots=%d\n",
			n.ID(), n.Completed(), n.CompletedAt(), n.EEPROM().Slots())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestTiledOneTileContract pins what a single-tile Build hands back,
// however the single tile was asked for: no engine, a zero TileGrid,
// and the one kernel, medium and collector exposed on the Result and
// the Network — so a caller that starts the network and steps
// res.Kernel by hand (the path bench/ drives) reaches exactly the
// outcome Run does.
func TestTiledOneTileContract(t *testing.T) {
	want := ""
	for _, shards := range []int{0, 1} {
		for _, tile := range []int{0, 1} {
			s := Setup{
				Name: fmt.Sprintf("one-tile-s%d-t%d", shards, tile),
				Rows: 4, Cols: 4, ImagePackets: 32, Seed: 42, Limit: time.Hour,
				Shards: shards, TileRows: tile, TileCols: tile,
			}
			res, err := Build(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if res.Engine != nil || res.TileGrid != (engine.Grid{}) {
				t.Fatalf("%s: engine %v, grid %s on a single tile", s.Name, res.Engine != nil, res.TileGrid)
			}
			if res.Kernel == nil || res.Medium == nil || res.Collector == nil {
				t.Fatalf("%s: kernel %v medium %v collector %v, want all set before the run",
					s.Name, res.Kernel != nil, res.Medium != nil, res.Collector != nil)
			}
			if res.Network.Kernel != res.Kernel || res.Network.Medium != res.Medium {
				t.Fatalf("%s: network is not bound to the result's kernel and medium", s.Name)
			}
			res.Network.Start()
			res.Completed = res.Kernel.RunUntil(res.Network.AllCompleted, res.Setup.Limit)
			res.CompletionTime = res.Network.CompletionTime()
			if !res.Completed {
				t.Fatalf("%s: hand-driven run incomplete", s.Name)
			}
			ran, err := Run(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			hand, run := outcomeDigest(res), outcomeDigest(ran)
			if hand != run {
				t.Fatalf("%s: hand-driven digest %s, Run digest %s", s.Name, hand, run)
			}
			if want == "" {
				want = run
			} else if run != want {
				t.Fatalf("%s: digest %s, want %s — the spelling of one tile leaked into results", s.Name, run, want)
			}
		}
	}
}

// TestShardedStripOrientation checks the grid Shards strips resolve to:
// cuts run across the longer axis, ties go to columns, and the Result
// reports the orientation the engine really ran (the strips' shape is
// engine.TestTilePartitionStrips' business).
func TestShardedStripOrientation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		want       engine.Grid
	}{
		{"wide", 2, 6, engine.Grid{Rows: 1, Cols: 3}},
		{"tall", 6, 2, engine.Grid{Rows: 3, Cols: 1}},
		{"square", 4, 4, engine.Grid{Rows: 1, Cols: 3}},
	} {
		res, err := Build(Setup{Name: tc.name, Rows: tc.rows, Cols: tc.cols, ImagePackets: 8, Shards: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Engine == nil || res.TileGrid != tc.want {
			t.Fatalf("%s: engine %v, grid %s, want %s", tc.name, res.Engine != nil, res.TileGrid, tc.want)
		}
	}
}

// TestFleetBytesPerMote is the budget on what a mote costs before it
// does anything: Build of a 20 000-mote fleet may keep at most 2 KB of
// heap per mote. An eagerly seeded math/rand source alone is 4.9 KB, so
// any per-mote state that should have been created on first use shows
// up here.
func TestFleetBytesPerMote(t *testing.T) {
	const rows, cols, budget = 100, 200, 2048
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	res, err := Build(Setup{Name: "fleet-budget", Rows: rows, Cols: cols, ImagePackets: 48, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(res)
	perMote := (int64(after) - int64(before)) / (rows * cols)
	t.Logf("%d B/mote", perMote)
	if perMote > budget {
		t.Fatalf("Build keeps %d B of heap per mote, budget %d", perMote, budget)
	}
}

// allocBudgets holds each registered protocol's budget on the 8×8 grid
// of TestRunAllocsPerFrame: its measured objects per frame plus half.
// What is left per frame is per-mote state bought once (random source,
// queue slots, messages, flash rows) spread over a short run's frames.
var allocBudgets = map[string]float64{
	"deluge": 0.62, // 0.41
	"gossip": 0.11, // 0.07
	"mnp":    0.45, // 0.30
	"moap":   0.17, // 0.11
	"rlnc":   0.08, // 0.05
	"xnp":    0.44, // 0.29
}

// partialRuns names the registered protocols whose 8×8 row may stop at
// the time limit: single-hop XNP never reaches the motes out of the
// base's range. Every other row must complete.
var partialRuns = map[string]bool{"xnp": true}

// TestRunAllocsPerFrame is the budget on what the data path buys while
// a run is in flight, in heap objects per transmitted frame, Build
// excluded. On the 10×10, 128-packet MNP run a store that buys a slice
// per stored packet and a copy per packet served reads 3.0; the slab
// and the lent view read 1.7; frames encoded at Send from one message
// per kind read 0.28. A send path that builds a message per frame costs
// about one more object per frame, so every registered protocol has a
// row on the 8×8 grid too, and a protocol with no budget fails.
func TestRunAllocsPerFrame(t *testing.T) {
	type row struct {
		name    string
		setup   Setup
		budget  float64
		partial bool // the run may end at its limit, not on completion
	}
	rows := []row{{"mnp-10x10", Setup{Rows: 10, Cols: 10, ImagePackets: 128}, 0.6, false}}
	for _, name := range protoreg.Names() {
		if name == "failnode" {
			continue // a fixture whose constructor fails for one mote, not a protocol
		}
		budget, ok := allocBudgets[name]
		if !ok {
			t.Errorf("protocol %q has no allocation budget", name)
			continue
		}
		rows = append(rows, row{name + "-8x8", Setup{Rows: 8, Cols: 8, ImagePackets: 128, Protocol: ProtocolKind(name), Limit: time.Hour}, budget, partialRuns[name]})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() && row.setup.Protocol != "" {
				t.Skip("the per-protocol rows run in the full suite; rlnc's alone is seconds under -race")
			}
			s := row.setup
			s.Name, s.Seed = "allocs-per-frame-"+row.name, 42
			res, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res.RunToCompletion()
			runtime.ReadMemStats(&after)
			until := res.CompletionTime
			if !res.Completed {
				if !row.partial {
					t.Fatal("run did not complete")
				}
				until = res.Setup.Limit
			}
			frames := res.Collector.Snapshot(until).Tx
			objects := after.Mallocs - before.Mallocs
			perFrame := float64(objects) / float64(frames)
			t.Logf("%d objects over %d frames: %.2f per frame", objects, frames, perFrame)
			if perFrame > row.budget {
				t.Fatalf("the run allocates %.2f heap objects per transmitted frame, budget %.2f", perFrame, row.budget)
			}
		})
	}
}

package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/engine"
	"mnp/internal/race"
	"mnp/internal/sim"
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
			if err := res.Network.Start(); err != nil {
				t.Fatal(err)
			}
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
// does anything: Build of a 20 000-mote fleet may keep at most 1 280 B
// of heap per mote (981 B today). An eagerly seeded math/rand source
// alone is 4.9 KB, and an eager empty map 48 B, so any per-mote state
// that should have been created on first use shows up here.
func TestFleetBytesPerMote(t *testing.T) {
	const rows, cols, budget = 100, 200, 1280
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

// TestBuildAllocsPerMote is the budget on how many heap objects Build
// makes per mote of a 20 000-mote MNP fleet: at most 1.25. The one
// object a mote must have is its protocol instance (Restart needs a
// fresh one); node, flash store and frame handler are carved from the
// network's slab, its timer and CSMA callbacks are the network's, and
// timer tables, queue slots and the requester set are bought on first
// use. Built one object at a time, a mote cost 6.
func TestBuildAllocsPerMote(t *testing.T) {
	const rows, cols, budget = 100, 200, 1.25
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Build(Setup{Name: "fleet-objects", Rows: rows, Cols: cols, ImagePackets: 48, Seed: 42})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(res)
	perMote := float64(after.Mallocs-before.Mallocs) / (rows * cols)
	t.Logf("%.2f objects/mote", perMote)
	if perMote > budget {
		t.Fatalf("Build makes %.2f heap objects per mote, budget %.2f", perMote, budget)
	}
}

// allocBudgets holds each registered protocol's budget on the 8×8 grid
// of TestRunAllocsPerFrame: its measured objects per frame plus half.
// What is left per frame is per-mote state bought once (random source,
// queue slots, messages, flash rows) spread over a short run's frames.
var allocBudgets = map[string]float64{
	"deluge": 0.41, // 0.27
	"gossip": 0.07, // 0.045
	"mnp":    0.25, // 0.165
	"moap":   0.06, // 0.040
	"rlnc":   0.05, // 0.032
	"xnp":    0.26, // 0.17
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
	for _, name := range ProtocolNames() {
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
			err = res.RunToCompletion()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
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

// TestImageTooBigForFlashIsAnError: an image the base's 512 KiB flash
// cannot hold fails Build for every protocol, before any mote starts,
// whether it is generated (24 000 packets of 22 bytes) or given as
// bytes.
func TestImageTooBigForFlashIsAnError(t *testing.T) {
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			grid := Setup{Name: "too-big", Rows: 2, Cols: 2, Protocol: ProtocolKind(name)}
			generated, given := grid, grid
			generated.ImagePackets = 24000
			given.ImageData = make([]byte, eeprom.DefaultCapacity+1)
			for _, s := range []Setup{generated, given} {
				res, err := Build(s)
				if err != nil {
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("Build accepted the image and Start panicked: %v", r)
						}
					}()
					res.Network.Start()
					t.Error("Build accepted an image the flash cannot hold")
				}()
			}
		})
	}
}

// TestUnitsFitTheirByte: Deluge numbers its 48-packet pages in one
// byte, so an image of more than 255 pages fails Build instead of being
// advertised with a wrapped page count; the same image is 102 segments
// to every other protocol.
func TestUnitsFitTheirByte(t *testing.T) {
	for _, name := range ProtocolNames() {
		_, err := Build(Setup{Name: "pages", Rows: 1, Cols: 2, ImagePackets: 13000, Protocol: ProtocolKind(name)})
		if (err != nil) != (name == string(ProtocolDeluge)) {
			t.Errorf("%s: Build = %v", name, err)
		}
	}
}

// TestReleaseTwiceIsANoOp: Result.Release hands each tile's kernel on
// once, however often it is called, on one tile and on several, and
// leaves no kernel or medium to drive. Were a kernel put into the pool
// twice, two later runs would share it.
func TestReleaseTwiceIsANoOp(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops pooled items at random")
	}
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1) // what Release puts, the next Get takes
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		runtime.GC()
		runtime.GC()
	}()
	for _, shards := range []int{1, 2} {
		res, err := Run(Setup{Name: "release", Rows: 3, Cols: 4, ImagePackets: 64, Seed: 42, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		released := map[*sim.Kernel]bool{}
		for _, tile := range res.tiles {
			released[tile.Kernel] = true
		}
		res.Release()
		res.Release()
		if res.Kernel != nil || res.Medium != nil || res.tiles != nil {
			t.Fatalf("%d tiles: a released result still holds a kernel or medium", shards)
		}
		taken := map[*sim.Kernel]bool{}
		for range len(released) + 1 {
			k := sim.NewSized(1, 1)
			if taken[k] {
				t.Fatalf("%d tiles: two runs took one kernel: a second Release put it back", shards)
			}
			taken[k] = true
		}
		for k := range released {
			if !taken[k] {
				t.Fatalf("%d tiles: a released kernel did not come back", shards)
			}
		}
	}
}

package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mnp/internal/packet"
	"mnp/internal/topology"
)

// checkTileInvariants asserts the contract TilePartition promises for
// any (layout, grid): exactly g.Tiles() tiles, every node in exactly
// one tile, no empty tile, Owned ascending, and every owned node's
// position inside the tile's bounds. It returns the id→tile map for
// further checks.
func checkTileInvariants(t *testing.T, layout *topology.Layout, g Grid, tiles []Tile) []int {
	t.Helper()
	if len(tiles) != g.Tiles() {
		t.Fatalf("grid %s: got %d tiles, want %d", g, len(tiles), g.Tiles())
	}
	pts := layout.Points()
	seen := make(map[packet.NodeID]int)
	for ti, tl := range tiles {
		if len(tl.Owned) == 0 {
			t.Fatalf("grid %s: tile %d (%d,%d) is empty", g, ti, tl.Row, tl.Col)
		}
		for i, id := range tl.Owned {
			if i > 0 && tl.Owned[i-1] >= id {
				t.Fatalf("grid %s: tile %d Owned not strictly ascending: %v", g, ti, tl.Owned)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("grid %s: node %v in tiles %d and %d", g, id, prev, ti)
			}
			seen[id] = ti
			p := pts[id]
			if !tl.Bounds.Contains(p.X, p.Y) {
				t.Fatalf("grid %s: node %v at (%g,%g) outside tile %d bounds %+v",
					g, id, p.X, p.Y, ti, tl.Bounds)
			}
		}
	}
	if len(seen) != layout.N() {
		t.Fatalf("grid %s: tiles cover %d of %d nodes", g, len(seen), layout.N())
	}
	return TileOf(layout.N(), tiles)
}

// Property: across random layouts and grids, TilePartition covers the
// deployment with disjoint non-empty tiles, and its row bands are
// monotone in Y — the maximum Y of band r never exceeds the minimum Y
// of band r+1, because bands are contiguous cuts of the (Y, X, ID)
// sort.
func TestTilePartitionPropertiesRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(150)
		w := 20 + rng.Float64()*400
		h := 20 + rng.Float64()*400
		layout, err := topology.Random(n, w, h, seed)
		if err != nil {
			t.Fatal(err)
		}
		pts := layout.Points()
		for _, g := range []Grid{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {3, 5}, {4, 4}} {
			if g.Tiles() > n {
				continue
			}
			tiles, err := TilePartition(layout, g)
			if err != nil {
				t.Fatalf("seed %d grid %s: %v", seed, g, err)
			}
			checkTileInvariants(t, layout, g, tiles)
			for r := 1; r < g.Rows; r++ {
				prevMax, curMin := math.Inf(-1), math.Inf(1)
				for c := 0; c < g.Cols; c++ {
					for _, id := range tiles[(r-1)*g.Cols+c].Owned {
						prevMax = math.Max(prevMax, pts[id].Y)
					}
					for _, id := range tiles[r*g.Cols+c].Owned {
						curMin = math.Min(curMin, pts[id].Y)
					}
				}
				if prevMax > curMin {
					t.Fatalf("seed %d grid %s: band %d maxY %g > band %d minY %g",
						seed, g, r-1, prevMax, r, curMin)
				}
			}
		}
	}
}

// Tile sizes are balanced quantile cuts: band populations differ by at
// most one, and within a band so do tile populations.
func TestTilePartitionBalanced(t *testing.T) {
	layout, err := topology.Random(101, 300, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Rows: 4, Cols: 3}
	tiles, err := TilePartition(layout, g)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Rows; r++ {
		min, max := layout.N(), 0
		for c := 0; c < g.Cols; c++ {
			sz := len(tiles[r*g.Cols+c].Owned)
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		if max-min > 1 {
			t.Fatalf("band %d tile sizes spread %d..%d, want within 1", r, min, max)
		}
	}
}

// TilePartition is a pure function of (layout, grid): two calls agree
// exactly, tiles, order, bounds and all.
func TestTilePartitionDeterministic(t *testing.T) {
	layout, err := topology.Random(60, 200, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := TilePartition(layout, Grid{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TilePartition(layout, Grid{3, 4})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical TilePartition calls diverged")
	}
}

// Degenerate grids reduce to strips: a 1×C grid cuts along X only (a
// tile's X-range never overlaps a later tile's), an R×1 grid along Y.
func TestTilePartitionStrips(t *testing.T) {
	layout, err := topology.Random(48, 250, 250, 5)
	if err != nil {
		t.Fatal(err)
	}
	pts := layout.Points()
	cols, err := TilePartition(layout, Grid{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cols); i++ {
		prevMax, curMin := math.Inf(-1), math.Inf(1)
		for _, id := range cols[i-1].Owned {
			prevMax = math.Max(prevMax, pts[id].X)
		}
		for _, id := range cols[i].Owned {
			curMin = math.Min(curMin, pts[id].X)
		}
		if prevMax > curMin {
			t.Fatalf("1x6 strip %d maxX %g > strip %d minX %g", i-1, prevMax, i, curMin)
		}
	}
	rows, err := TilePartition(layout, Grid{6, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		prevMax, curMin := math.Inf(-1), math.Inf(1)
		for _, id := range rows[i-1].Owned {
			prevMax = math.Max(prevMax, pts[id].Y)
		}
		for _, id := range rows[i].Owned {
			curMin = math.Min(curMin, pts[id].Y)
		}
		if prevMax > curMin {
			t.Fatalf("6x1 strip %d maxY %g > strip %d minY %g", i-1, prevMax, i, curMin)
		}
	}
}

func TestTilePartitionErrors(t *testing.T) {
	layout, err := topology.Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TilePartition(nil, Grid{1, 1}); err == nil {
		t.Error("nil layout accepted")
	}
	for _, g := range []Grid{{0, 1}, {1, 0}, {-1, 2}} {
		if _, err := TilePartition(layout, g); err == nil {
			t.Errorf("grid %s accepted", g)
		}
	}
	if _, err := TilePartition(layout, Grid{4, 3}); err == nil {
		t.Error("12 tiles over 9 nodes accepted")
	}
	// One node per tile is the legal extreme.
	tiles, err := TilePartition(layout, Grid{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for ti, tl := range tiles {
		if len(tl.Owned) != 1 {
			t.Fatalf("tile %d owns %d nodes, want exactly 1", ti, len(tl.Owned))
		}
	}
}

// Rect.Distance must lower-bound the distance from the query point to
// every point inside the rectangle — the property that makes it safe
// as a ghost-routing prefilter — and be zero inside.
func TestRectDistance(t *testing.T) {
	r := Rect{MinX: 10, MinY: 20, MaxX: 40, MaxY: 50}
	cases := []struct {
		x, y, want float64
	}{
		{25, 35, 0},  // interior
		{10, 20, 0},  // corner, inclusive
		{40, 35, 0},  // edge
		{0, 35, 10},  // left of the box
		{25, 60, 10}, // above
		{50, 35, 10}, // right
		{4, 12, 10},  // corner: 6-8-10 triangle
	}
	for _, tc := range cases {
		if got := r.Distance(tc.x, tc.y); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance(%g,%g) = %g, want %g", tc.x, tc.y, got, tc.want)
		}
		if (tc.want == 0) != r.Contains(tc.x, tc.y) {
			t.Errorf("Contains(%g,%g) = %v disagrees with distance %g",
				tc.x, tc.y, r.Contains(tc.x, tc.y), tc.want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		qx, qy := rng.Float64()*100-25, rng.Float64()*100-25
		px := r.MinX + rng.Float64()*(r.MaxX-r.MinX)
		py := r.MinY + rng.Float64()*(r.MaxY-r.MinY)
		d := r.Distance(qx, qy)
		if actual := math.Hypot(qx-px, qy-py); d > actual+1e-9 {
			t.Fatalf("Distance(%g,%g) = %g exceeds distance %g to interior point (%g,%g)",
				qx, qy, d, actual, px, py)
		}
	}
}

// boundaryWant is the O(n²) brute-force reference: a node is a
// boundary node iff a scan of every other node finds an in-range
// neighbor owned by a different tile.
func boundaryWant(layout *topology.Layout, tileOf []int, rangeFt float64) []packet.NodeID {
	var out []packet.NodeID
	pts := layout.Points()
	for i, p := range pts {
		for j, q := range pts {
			if j != i && tileOf[j] != tileOf[i] && p.Distance(q) <= rangeFt {
				out = append(out, packet.NodeID(i))
				break
			}
		}
	}
	return out
}

// Property: BoundaryNodes (sparse index) returns exactly the
// brute-force boundary set — same membership, same ascending order —
// across random layouts, grids, and radio ranges.
func TestBoundaryNodesMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		n := 20 + rng.Intn(120)
		layout, err := topology.Random(n, 30+rng.Float64()*300, 30+rng.Float64()*300, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []Grid{{1, 2}, {2, 2}, {4, 3}} {
			if g.Tiles() > n {
				continue
			}
			tiles, err := TilePartition(layout, g)
			if err != nil {
				t.Fatal(err)
			}
			tileOf := TileOf(n, tiles)
			for _, rangeFt := range []float64{5, 27, 80, 1000} {
				got, err := BoundaryNodes(layout, tileOf, rangeFt)
				if err != nil {
					t.Fatal(err)
				}
				want := boundaryWant(layout, tileOf, rangeFt)
				if len(got) != len(want) {
					t.Fatalf("seed %d grid %s range %g: got %d boundary nodes %v, want %d %v",
						seed, g, rangeFt, len(got), got, len(want), want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d grid %s range %g: boundary[%d] = %v, want %v",
							seed, g, rangeFt, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestBoundaryNodesSingleTileEmpty(t *testing.T) {
	layout, err := topology.Grid(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	tileOf := make([]int, layout.N()) // everyone in tile 0
	got, err := BoundaryNodes(layout, tileOf, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("one tile yielded boundary nodes %v", got)
	}
}

func TestBoundaryNodesErrors(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BoundaryNodes(nil, nil, 10); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := BoundaryNodes(layout, make([]int, 3), 10); err == nil {
		t.Error("short tile map accepted")
	}
	if _, err := BoundaryNodes(layout, make([]int, 4), 0); err == nil {
		t.Error("zero range accepted")
	}
}

func TestTileOf(t *testing.T) {
	tiles := []Tile{
		{Owned: []packet.NodeID{0, 3}},
		{Owned: []packet.NodeID{1}},
	}
	got := TileOf(5, tiles)
	want := []int{0, 1, -1, 0, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TileOf = %v, want %v", got, want)
	}
}

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

// AutoGrid is a pure function of (layout, range, workers): it never
// exceeds the node count, never goes below 1×1, scales the tile count
// with the worker count while the extent allows, and respects the
// one-radio-range-per-tile floor on tile width.
func TestAutoGridProperties(t *testing.T) {
	layout, err := topology.Grid(20, 20, 10) // 400 nodes, 190ft square
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, workers := range []int{1, 2, 4, 8} {
		g := AutoGrid(layout, 15, workers)
		if g != AutoGrid(layout, 15, workers) {
			t.Fatalf("AutoGrid not deterministic for workers=%d", workers)
		}
		if g.Rows < 1 || g.Cols < 1 || g.Tiles() > layout.N() {
			t.Fatalf("workers=%d: grid %s invalid for %d nodes", workers, g, layout.N())
		}
		if g.Tiles() < prev {
			t.Fatalf("workers=%d: tile count %d shrank below %d with fewer workers",
				workers, g.Tiles(), prev)
		}
		prev = g.Tiles()
		if _, err := TilePartition(layout, g); err != nil {
			t.Fatalf("workers=%d: AutoGrid output rejected: %v", workers, err)
		}
	}
	// Even absurd worker counts cannot push tiles below one radio range
	// on a side: 190ft / 100ft range caps each axis at 2.
	if g := AutoGrid(layout, 100, 64); g.Rows > 2 || g.Cols > 2 {
		t.Fatalf("range floor ignored: %s for a 190ft extent at 100ft range", g)
	}
}

func TestAutoGridDegenerate(t *testing.T) {
	one, err := topology.FromPoints("one", []topology.Point{{X: 5, Y: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if g := AutoGrid(one, 10, 8); g != (Grid{1, 1}) {
		t.Fatalf("single node: %s, want 1x1", g)
	}
	// Colinear along X: zero Y extent means rows can never split.
	pts := make([]topology.Point, 40)
	for i := range pts {
		pts[i] = topology.Point{X: float64(i) * 10, Y: 3}
	}
	line, err := topology.FromPoints("line", pts)
	if err != nil {
		t.Fatal(err)
	}
	g := AutoGrid(line, 25, 4)
	if g.Rows != 1 {
		t.Fatalf("colinear-x layout produced %s, want a single row", g)
	}
	if _, err := TilePartition(line, g); err != nil {
		t.Fatalf("AutoGrid output rejected: %v", err)
	}
}

// planAssignment unit tests: the pure LPT core the repartitioner's
// determinism rests on.
func TestPlanAssignment(t *testing.T) {
	t.Run("balanced-no-move", func(t *testing.T) {
		next, moved := planAssignment([]int64{10, 10, 10, 10}, []int{0, 1, 2, 3}, 4, 1.25)
		if moved != 0 || !reflect.DeepEqual(next, []int{0, 1, 2, 3}) {
			t.Fatalf("balanced loads moved %d tiles: %v", moved, next)
		}
	})
	t.Run("idle-no-move", func(t *testing.T) {
		if _, moved := planAssignment([]int64{0, 0, 0}, []int{0, 0, 1}, 2, 1.0); moved != 0 {
			t.Fatalf("all-idle period moved %d tiles", moved)
		}
	})
	t.Run("skew-repacks-lpt", func(t *testing.T) {
		// One executor holds everything; LPT must spread the light tiles.
		next, moved := planAssignment([]int64{10, 1, 1, 1}, []int{0, 0, 0, 0}, 2, 1.25)
		want := []int{0, 1, 1, 1}
		if moved != 3 || !reflect.DeepEqual(next, want) {
			t.Fatalf("got %v (%d moved), want %v (3 moved)", next, moved, want)
		}
	})
	t.Run("tie-keeps-current-owner", func(t *testing.T) {
		// Tiles 0 and 1 carry equal load; tile 0's owner (1) must win the
		// empty-executor tie so only tile 1 migrates.
		next, moved := planAssignment([]int64{4, 4, 0, 0}, []int{1, 1, 0, 0}, 2, 1.0)
		if next[0] != 1 {
			t.Fatalf("tile 0 moved off its owner on a tie: %v", next)
		}
		if moved != 1 || next[1] != 0 {
			t.Fatalf("got %v (%d moved), want tile 1 alone moving to executor 0", next, moved)
		}
	})
	t.Run("threshold-gates", func(t *testing.T) {
		// Both tiles on executor 0: max/mean = 2.0 exactly. At threshold
		// 2.0 the skew is tolerated; at 1.25 the light tile migrates.
		loads, cur := []int64{6, 2}, []int{0, 0}
		if _, moved := planAssignment(loads, cur, 2, 2.0); moved != 0 {
			t.Fatal("threshold 2.0 did not gate a 2.0x skew")
		}
		next, moved := planAssignment(loads, cur, 2, 1.25)
		if moved != 1 || next[1] != 1 {
			t.Fatalf("threshold 1.25: got %v (%d moved), want tile 1 on executor 1", next, moved)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		loads := []int64{9, 7, 7, 3, 1, 1, 0, 5}
		cur := []int{0, 0, 1, 1, 2, 2, 3, 3}
		a, am := planAssignment(loads, cur, 4, 1.1)
		b, bm := planAssignment(loads, cur, 4, 1.1)
		if am != bm || !reflect.DeepEqual(a, b) {
			t.Fatalf("identical inputs diverged: %v vs %v", a, b)
		}
		// The repack must not be worse than the input's balance.
		imbalance := func(asn []int) float64 {
			sums := make([]int64, 4)
			var total, max int64
			for ti, x := range asn {
				sums[x] += loads[ti]
				total += loads[ti]
			}
			for _, s := range sums {
				if s > max {
					max = s
				}
			}
			return float64(max) * 4 / float64(total)
		}
		if imbalance(a) > imbalance(cur) {
			t.Fatalf("repack worsened imbalance: %g -> %g", imbalance(cur), imbalance(a))
		}
	})
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

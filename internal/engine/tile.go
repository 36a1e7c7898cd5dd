package engine

import (
	"fmt"
	"math"
	"sort"

	"mnp/internal/packet"
	"mnp/internal/topology"
)

// Grid is the shape of a 2D tile partition: Rows bands along the Y
// axis, each band cut into Cols tiles along the X axis.
type Grid struct {
	Rows, Cols int
}

// Tiles returns the number of tiles in the grid.
func (g Grid) Tiles() int { return g.Rows * g.Cols }

func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Rows, g.Cols) }

// Rect is an axis-aligned bounding box in layout coordinates (feet).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Distance returns the Euclidean distance from (x, y) to the nearest
// point of the rectangle, zero when (x, y) lies inside it. It lower
// -bounds the distance from (x, y) to every point within the rectangle,
// which is what makes it safe as a ghost-routing prefilter.
func (r Rect) Distance(x, y float64) float64 {
	dx := math.Max(math.Max(r.MinX-x, 0), x-r.MaxX)
	dy := math.Max(math.Max(r.MinY-y, 0), y-r.MaxY)
	return math.Hypot(dx, dy)
}

// Contains reports whether (x, y) lies inside the rectangle (borders
// inclusive).
func (r Rect) Contains(x, y float64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Tile is one cell of a 2D tile partition: its grid coordinates, the
// IDs of the nodes it owns (ascending), and the tight bounding box
// around their positions.
type Tile struct {
	Row, Col int
	Owned    []packet.NodeID
	Bounds   Rect
}

// TilePartition splits a layout into an R×C grid of population
// -balanced tiles by quantile cuts: nodes are sorted by (Y, X, ID) and
// cut into R bands of near-equal count, then each band is sorted by
// (X, Y, ID) and cut into C tiles of near-equal count. Every tile is
// non-empty (the grid must not out-number the nodes), tiles are
// pairwise disjoint, their union covers the deployment, and the result
// is a pure function of (layout, grid) — it does not depend on worker
// count, shard count, or iteration order. Degenerate 1×N and N×1 grids
// reduce to contiguous strips along one axis.
func TilePartition(layout *topology.Layout, g Grid) ([]Tile, error) {
	if layout == nil {
		return nil, fmt.Errorf("engine: nil layout")
	}
	n := layout.N()
	if g.Rows < 1 || g.Cols < 1 {
		return nil, fmt.Errorf("engine: tile grid %s must be at least 1x1", g)
	}
	if g.Tiles() > n {
		return nil, fmt.Errorf("engine: tile grid %s has %d tiles for %d nodes", g, g.Tiles(), n)
	}
	pts := layout.Points()
	ids := make([]packet.NodeID, n)
	for i := range ids {
		ids[i] = packet.NodeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := pts[ids[a]], pts[ids[b]]
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return ids[a] < ids[b]
	})
	tiles := make([]Tile, 0, g.Tiles())
	bandBase, bandExtra := n/g.Rows, n%g.Rows
	at := 0
	for r := 0; r < g.Rows; r++ {
		size := bandBase
		if r < bandExtra {
			size++
		}
		band := append([]packet.NodeID(nil), ids[at:at+size]...)
		at += size
		sort.Slice(band, func(a, b int) bool {
			pa, pb := pts[band[a]], pts[band[b]]
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return band[a] < band[b]
		})
		// n >= Rows*Cols guarantees every band holds at least Cols
		// nodes, so no tile ends up empty.
		colBase, colExtra := size/g.Cols, size%g.Cols
		bat := 0
		for c := 0; c < g.Cols; c++ {
			cs := colBase
			if c < colExtra {
				cs++
			}
			owned := append([]packet.NodeID(nil), band[bat:bat+cs]...)
			bat += cs
			sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
			tiles = append(tiles, Tile{Row: r, Col: c, Owned: owned, Bounds: boundsOf(pts, owned)})
		}
	}
	return tiles, nil
}

// BoundsOf returns the tight bounding box around a node set's
// positions. It is the box the engine uses to skip offering ghost
// frames to tiles out of radio range.
func BoundsOf(layout *topology.Layout, owned []packet.NodeID) Rect {
	return boundsOf(layout.Points(), owned)
}

func boundsOf(pts []topology.Point, owned []packet.NodeID) Rect {
	r := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, id := range owned {
		p := pts[id]
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r
}

// extent returns the width and height of the layout's bounding box.
func extent(layout *topology.Layout) (x, y float64) {
	var b Rect
	for i, p := range layout.Points() {
		if i == 0 {
			b = Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		}
		b.MinX, b.MaxX = math.Min(b.MinX, p.X), math.Max(b.MaxX, p.X)
		b.MinY, b.MaxY = math.Min(b.MinY, p.Y), math.Max(b.MaxY, p.Y)
	}
	return b.MaxX - b.MinX, b.MaxY - b.MinY
}

// StripGrid is the grid that cuts a layout into k contiguous strips
// across its longer axis: 1×k, or k×1 when the layout is strictly
// taller than wide — so only nodes near k−1 short cuts have cross-tile
// neighbors.
func StripGrid(layout *topology.Layout, k int) Grid {
	if k > 1 {
		if x, y := extent(layout); y > x {
			return Grid{Rows: k, Cols: 1}
		}
	}
	return Grid{Rows: 1, Cols: k}
}

// BoundaryNodes returns, in ascending ID order, every node that has at
// least one neighbor within rangeFt owned by a different tile —
// exactly the nodes whose transmissions the engine must export as
// ghost frames. tileOf maps each node ID to its tile index. The
// neighbor enumeration runs on the sparse spatial index (O(n·degree)),
// never the O(n²) distance matrix.
func BoundaryNodes(layout *topology.Layout, tileOf []int, rangeFt float64) ([]packet.NodeID, error) {
	if layout == nil {
		return nil, fmt.Errorf("engine: nil layout")
	}
	n := layout.N()
	if len(tileOf) != n {
		return nil, fmt.Errorf("engine: tile map covers %d of %d nodes", len(tileOf), n)
	}
	if rangeFt <= 0 {
		return nil, fmt.Errorf("engine: radio range %v must be positive", rangeFt)
	}
	ix, err := topology.NewIndex(layout, rangeFt)
	if err != nil {
		return nil, err
	}
	var out, buf []packet.NodeID
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		buf = ix.AppendWithin(id, rangeFt, buf[:0])
		for _, nb := range buf {
			if tileOf[nb] != tileOf[i] {
				out = append(out, id)
				break
			}
		}
	}
	return out, nil
}

// TileOf flattens a tile list into an id→tile-index map, the form
// BoundaryNodes and metrics merging consume.
func TileOf(n int, tiles []Tile) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = -1
	}
	for ti, tl := range tiles {
		for _, id := range tl.Owned {
			m[id] = ti
		}
	}
	return m
}

package topology

import (
	"fmt"
	"math"
	"slices"

	"mnp/internal/packet"
)

// Index is a uniform grid hash over a layout's points: the bounding box
// is cut into square cells and each cell lists the IDs of the nodes
// inside it, so a range query touches only the cells overlapping the
// query disc instead of every node. Storage is two flat arrays (CSR
// style) — ids sorted by (cell, id) plus per-cell offsets — so an index
// over N nodes costs O(N) memory regardless of density. An Index is
// safe for concurrent readers; Move and Remove are incremental updates
// and must be externally serialized against readers (the engine applies
// them only at lockstep barriers, with all workers parked).
//
// The grid geometry (bounding box, cell size) is fixed at construction:
// points that drift outside the original bounding box land in the
// clamped edge cells, which stays correct because every query filters
// by exact distance — only the constant factor degrades if most nodes
// leave the box.
type Index struct {
	pts        []Point
	minX, minY float64
	cell       float64
	cols, rows int
	cellStart  []int32 // len cols*rows+1; cell c holds ids[cellStart[c]:cellStart[c+1]]
	ids        []int32 // node IDs sorted by (cell, id)
	gone       []bool  // nil until the first Remove; gone[id] = not indexed
}

// maxCellsFactor bounds the cell count relative to the node count, so a
// tiny cell size over a huge bounding box cannot blow up memory: the
// cell edge is grown until cols*rows fits. Queries stay correct for any
// cell size because the walk covers the query disc's full cell range.
const maxCellsFactor = 4

// NewIndex builds a grid hash over the layout with the given cell edge
// length (feet). Pick the largest query radius you will use — for the
// radio, the maximum transmit range — so most queries touch at most a
// 3×3 block of cells; any positive value is correct.
func NewIndex(l *Layout, cell float64) (*Index, error) {
	if l == nil || len(l.points) == 0 {
		return nil, fmt.Errorf("topology: index over an empty layout")
	}
	if !(cell > 0) || math.IsInf(cell, 0) {
		return nil, fmt.Errorf("topology: index cell size %g must be positive and finite", cell)
	}
	pts := l.points
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	// A non-finite box would keep the coarsening loop below doubling
	// the cell forever.
	if w, h := maxX-minX, maxY-minY; math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(h) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("topology: index bounding box [%g, %g]x[%g, %g] is not finite", minX, maxX, minY, maxY)
	}
	ix := &Index{pts: pts, minX: minX, minY: minY, cell: cell}
	budget := maxCellsFactor*len(pts) + 16
	for {
		ix.cols = int((maxX-minX)/ix.cell) + 1
		ix.rows = int((maxY-minY)/ix.cell) + 1
		// Per-axis bounds first so cols*rows cannot overflow.
		if ix.cols > 0 && ix.rows > 0 && ix.cols <= budget && ix.rows <= budget && ix.cols*ix.rows <= budget {
			break
		}
		// Too many (or overflowed) cells for this point count: coarsen.
		ix.cell *= 2
	}
	nc := ix.cols * ix.rows
	counts := make([]int32, nc+1)
	for _, p := range pts {
		counts[ix.cellOf(p)+1]++
	}
	for c := 0; c < nc; c++ {
		counts[c+1] += counts[c]
	}
	ix.cellStart = counts
	ix.ids = make([]int32, len(pts))
	cursor := make([]int32, nc)
	copy(cursor, counts[:nc])
	// Node IDs ascend here, so each cell's slice comes out sorted.
	for i, p := range pts {
		c := ix.cellOf(p)
		ix.ids[cursor[c]] = int32(i)
		cursor[c]++
	}
	return ix, nil
}

// cellOf maps a point to its cell, clamped into the grid so float
// rounding at the bounding-box edge cannot index out of range.
func (ix *Index) cellOf(p Point) int {
	cx := int((p.X - ix.minX) / ix.cell)
	cy := int((p.Y - ix.minY) / ix.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= ix.cols {
		cx = ix.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= ix.rows {
		cy = ix.rows - 1
	}
	return cy*ix.cols + cx
}

// N returns the number of indexed nodes.
func (ix *Index) N() int { return len(ix.pts) }

// Cells returns the grid dimensions, for diagnostics and tests.
func (ix *Index) Cells() (cols, rows int) { return ix.cols, ix.rows }

// Footprint returns the index's own memory in bytes (excluding the
// point slice, which it shares with the layout).
func (ix *Index) Footprint() uint64 {
	return uint64(len(ix.ids))*4 + uint64(len(ix.cellStart))*4
}

// AppendWithin appends to dst the IDs of all nodes other than id at
// distance <= radius from node id, in ascending ID order, touching only
// the cells overlapping the query disc. Pass a reused dst[:0] to query
// without allocating.
func (ix *Index) AppendWithin(id packet.NodeID, radius float64, dst []packet.NodeID) []packet.NodeID {
	p := ix.pts[id]
	base := len(dst)
	cx0, cx1 := ix.clampCol(p.X-radius), ix.clampCol(p.X+radius)
	cy0, cy1 := ix.clampRow(p.Y-radius), ix.clampRow(p.Y+radius)
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * ix.cols
		for cx := cx0; cx <= cx1; cx++ {
			c := rowBase + cx
			for _, other := range ix.ids[ix.cellStart[c]:ix.cellStart[c+1]] {
				if packet.NodeID(other) == id {
					continue
				}
				if p.Distance(ix.pts[other]) <= radius {
					dst = append(dst, packet.NodeID(other))
				}
			}
		}
	}
	// Cells are visited row-major, so the result is sorted per cell but
	// not globally.
	slices.Sort(dst[base:])
	return dst
}

func (ix *Index) clampCol(x float64) int {
	c := int(math.Floor((x - ix.minX) / ix.cell))
	if c < 0 {
		return 0
	}
	if c >= ix.cols {
		return ix.cols - 1
	}
	return c
}

func (ix *Index) clampRow(y float64) int {
	r := int(math.Floor((y - ix.minY) / ix.cell))
	if r < 0 {
		return 0
	}
	if r >= ix.rows {
		return ix.rows - 1
	}
	return r
}

// CellIndex returns the cell a point maps to (clamped into the grid),
// for callers that version per-cell state alongside the index.
func (ix *Index) CellIndex(p Point) int { return ix.cellOf(p) }

// CellRect returns the inclusive cell-coordinate rectangle covering the
// disc of the given radius around p — the exact cell set AppendWithin
// walks for that query.
func (ix *Index) CellRect(p Point, radius float64) (cx0, cy0, cx1, cy1 int) {
	return ix.clampCol(p.X - radius), ix.clampRow(p.Y - radius),
		ix.clampCol(p.X + radius), ix.clampRow(p.Y + radius)
}

// locate returns the absolute position of id inside cell c's slice.
// The id must be present; the CSR invariant (ascending ids per cell)
// makes this a binary search.
func (ix *Index) locate(c int, id int32) int {
	seg := ix.ids[ix.cellStart[c]:ix.cellStart[c+1]]
	k, ok := slices.BinarySearch(seg, id)
	if !ok {
		panic(fmt.Sprintf("topology: index corrupt: id %d not in cell %d", id, c))
	}
	return int(ix.cellStart[c]) + k
}

// Move updates node id's position to p, relocating it between cells so
// the CSR arrays stay exact (each cell's slice sorted, offsets
// consistent). Moving a removed id reinserts it. The position write
// goes through the shared point slice, so the owning Layout observes
// the new coordinates too. Cost is O(1) for a same-cell move and
// O(|ids between the two cells|) otherwise — small for the short hops
// mobility models produce.
func (ix *Index) Move(id packet.NodeID, p Point) {
	if ix.gone != nil && ix.gone[id] {
		ix.pts[id] = p
		ix.reinsert(id)
		return
	}
	from := ix.cellOf(ix.pts[id])
	ix.pts[id] = p
	to := ix.cellOf(p)
	if to == from {
		return
	}
	i := ix.locate(from, int32(id))
	if to > from {
		// Insertion point in the target cell, indexed in the pre-removal
		// array; removing position i (< cellStart[to]) shifts everything
		// in (i, j) left one, so id lands at j-1.
		tseg := ix.ids[ix.cellStart[to]:ix.cellStart[to+1]]
		k, _ := slices.BinarySearch(tseg, int32(id))
		j := int(ix.cellStart[to]) + k
		copy(ix.ids[i:j-1], ix.ids[i+1:j])
		ix.ids[j-1] = int32(id)
		for c := from + 1; c <= to; c++ {
			ix.cellStart[c]--
		}
	} else {
		tseg := ix.ids[ix.cellStart[to]:ix.cellStart[to+1]]
		k, _ := slices.BinarySearch(tseg, int32(id))
		j := int(ix.cellStart[to]) + k
		copy(ix.ids[j+1:i+1], ix.ids[j:i])
		ix.ids[j] = int32(id)
		for c := to + 1; c <= from; c++ {
			ix.cellStart[c]++
		}
	}
}

// Remove deletes node id from the index: no query returns it until a
// later Move reinserts it. The point slice keeps its entry (IDs are
// dense indices), only the CSR arrays shrink. Removing an absent id is
// a no-op. Cost is O(N) in the tail shift.
func (ix *Index) Remove(id packet.NodeID) {
	if ix.gone == nil {
		ix.gone = make([]bool, len(ix.pts))
	} else if ix.gone[id] {
		return
	}
	c := ix.cellOf(ix.pts[id])
	i := ix.locate(c, int32(id))
	copy(ix.ids[i:], ix.ids[i+1:])
	ix.ids = ix.ids[:len(ix.ids)-1]
	for cc := c + 1; cc < len(ix.cellStart); cc++ {
		ix.cellStart[cc]--
	}
	ix.gone[id] = true
}

// reinsert puts a previously Removed id back at its current position.
func (ix *Index) reinsert(id packet.NodeID) {
	c := ix.cellOf(ix.pts[id])
	seg := ix.ids[ix.cellStart[c]:ix.cellStart[c+1]]
	k, _ := slices.BinarySearch(seg, int32(id))
	j := int(ix.cellStart[c]) + k
	ix.ids = append(ix.ids, 0)
	copy(ix.ids[j+1:], ix.ids[j:])
	ix.ids[j] = int32(id)
	for cc := c + 1; cc < len(ix.cellStart); cc++ {
		ix.cellStart[cc]++
	}
	ix.gone[id] = false
}

// Indexed returns how many nodes the index currently holds (N minus
// removals).
func (ix *Index) Indexed() int { return len(ix.ids) }

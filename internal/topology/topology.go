// Package topology places motes in 2-D space and answers geometric
// queries. The paper's deployments are grids — indoor 3×5, outdoor 5×5
// and 2×10, simulated 20×20 — with a fixed inter-node spacing and the
// base station at a corner.
package topology

import (
	"fmt"
	"math"

	"mnp/internal/packet"
	"mnp/internal/sim"
)

// Point is a position in feet.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q in feet.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Layout is an immutable placement of N motes; node IDs are dense,
// 0..N-1.
type Layout struct {
	name   string
	points []Point
	rows   int
	cols   int
}

// Grid places rows×cols motes with the given spacing (feet), row-major
// from the origin: node r*cols+c sits at (c*spacing, r*spacing). Node 0
// is therefore a corner — where the paper puts the base station.
func Grid(rows, cols int, spacing float64) (*Layout, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: grid %dx%d must be positive", rows, cols)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("topology: spacing %v must be positive", spacing)
	}
	if rows*cols > int(packet.Broadcast) {
		return nil, fmt.Errorf("topology: %d nodes exceeds the address space", rows*cols)
	}
	pts := make([]Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	// FromPoints rejects the non-finite coordinates an infinite, NaN or
	// overflowing spacing produces.
	l, err := FromPoints(fmt.Sprintf("grid-%dx%d@%gft", rows, cols, spacing), pts)
	if err != nil {
		return nil, err
	}
	l.rows, l.cols = rows, cols
	return l, nil
}

// Line places n motes in a straight line with the given spacing.
func Line(n int, spacing float64) (*Layout, error) {
	l, err := Grid(1, n, spacing)
	if err != nil {
		return nil, err
	}
	l.name = fmt.Sprintf("line-%d@%gft", n, spacing)
	return l, nil
}

// Random places n motes uniformly at random in a w×h field,
// deterministically from seed.
func Random(n int, w, h float64, seed int64) (*Layout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n must be positive, got %d", n)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("topology: field %gx%g must be positive", w, h)
	}
	rng := sim.NewRand(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	sim.ReleaseRand(rng)
	return FromPoints(fmt.Sprintf("random-%d@%gx%gft", n, w, h), pts)
}

// FromPoints places motes at explicit coordinates (feet), rejecting
// non-finite ones; Grid and Random build their layouts through it. The
// slice is copied; node i sits at pts[i].
func FromPoints(name string, pts []Point) (*Layout, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("topology: point layout %q has no nodes", name)
	}
	if len(pts) > int(packet.Broadcast) {
		return nil, fmt.Errorf("topology: %d nodes exceeds the address space", len(pts))
	}
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("topology: point %d (%g, %g) is not finite", i, p.X, p.Y)
		}
	}
	if name == "" {
		name = fmt.Sprintf("points-%d", len(pts))
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &Layout{name: name, points: cp}, nil
}

// Name describes the layout for reports.
func (l *Layout) Name() string { return l.name }

// N returns the number of motes.
func (l *Layout) N() int { return len(l.points) }

// Rows returns the grid row count, or 0 for non-grid layouts.
func (l *Layout) Rows() int { return l.rows }

// Cols returns the grid column count, or 0 for non-grid layouts.
func (l *Layout) Cols() int { return l.cols }

// Points returns the layout's backing point slice — node i sits at
// Points()[i]. The slice is shared, not copied; callers must treat it
// as read-only. The radio geometry uses it to compute link distances
// on demand without the O(N²) distance matrix.
func (l *Layout) Points() []Point { return l.points }

// Pos returns the position of node id.
func (l *Layout) Pos(id packet.NodeID) (Point, error) {
	if int(id) >= len(l.points) {
		return Point{}, fmt.Errorf("topology: node %v out of range (N=%d)", id, len(l.points))
	}
	return l.points[id], nil
}

// Distance returns the distance in feet between two nodes.
func (l *Layout) Distance(a, b packet.NodeID) (float64, error) {
	pa, err := l.Pos(a)
	if err != nil {
		return 0, err
	}
	pb, err := l.Pos(b)
	if err != nil {
		return 0, err
	}
	return pa.Distance(pb), nil
}

// NeighborsWithin returns, for every node, the IDs of all other nodes
// at distance <= radius in ascending ID order — one precomputed
// adjacency table for the whole layout.
func (l *Layout) NeighborsWithin(radius float64) [][]packet.NodeID {
	n := len(l.points)
	ix, err := NewIndex(l, indexCell(radius))
	if err != nil {
		return make([][]packet.NodeID, n)
	}
	out := make([][]packet.NodeID, n)
	for a := 0; a < n; a++ {
		out[a] = ix.AppendWithin(packet.NodeID(a), radius, nil)
	}
	return out
}

// indexCell turns a query radius into a valid index cell size: the
// radius itself when positive, a nominal edge otherwise (a non-positive
// radius only ever matches coincident nodes, so any cell size works).
func indexCell(radius float64) float64 {
	if radius > 0 && !math.IsInf(radius, 0) {
		return radius
	}
	return 1
}

// GridCoord returns the (row, col) of node id in a grid layout.
func (l *Layout) GridCoord(id packet.NodeID) (row, col int, err error) {
	if l.cols == 0 {
		return 0, 0, fmt.Errorf("topology: %s is not a grid", l.name)
	}
	if int(id) >= len(l.points) {
		return 0, 0, fmt.Errorf("topology: node %v out of range", id)
	}
	return int(id) / l.cols, int(id) % l.cols, nil
}

// HopDistanceFromCorner returns the Chebyshev grid distance of id from
// node 0 — a convenient "rings from the base station" measure used by
// the location-based reports (Figures 8 and 11).
func (l *Layout) HopDistanceFromCorner(id packet.NodeID) (int, error) {
	r, c, err := l.GridCoord(id)
	if err != nil {
		return 0, err
	}
	if c > r {
		return c, nil
	}
	return r, nil
}

// IsEdge reports whether a grid node lies on the boundary of the grid.
func (l *Layout) IsEdge(id packet.NodeID) (bool, error) {
	r, c, err := l.GridCoord(id)
	if err != nil {
		return false, err
	}
	return r == 0 || c == 0 || r == l.rows-1 || c == l.cols-1, nil
}

// Connected reports whether the layout forms a single connected
// component under the given communication radius. Dissemination
// coverage is only promised for connected networks, so experiments on
// random placements check this first.
func (l *Layout) Connected(radius float64) bool {
	n := len(l.points)
	if n == 0 {
		return false
	}
	ix, err := NewIndex(l, indexCell(radius))
	if err != nil {
		return false
	}
	visited := make([]bool, n)
	queue := []packet.NodeID{0}
	visited[0] = true
	seen := 1
	var buf []packet.NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = ix.AppendWithin(cur, radius, buf[:0])
		for _, nb := range buf {
			if !visited[nb] {
				visited[nb] = true
				seen++
				queue = append(queue, nb)
			}
		}
	}
	return seen == n
}

// ConnectedRandom draws random layouts (varying the seed) until one is
// connected under radius, trying at most attempts times.
func ConnectedRandom(n int, w, h, radius float64, seed int64, attempts int) (*Layout, error) {
	for i := 0; i < attempts; i++ {
		l, err := Random(n, w, h, seed+int64(i))
		if err != nil {
			return nil, err
		}
		if l.Connected(radius) {
			return l, nil
		}
	}
	return nil, fmt.Errorf("topology: no connected random layout of %d nodes in %gx%g within %d attempts", n, w, h, attempts)
}

package topology

import (
	"math"
	"math/rand"
	"testing"

	"mnp/internal/packet"
)

// indexWant is the brute-force O(n²) reference the index must match
// exactly: Layout.Within scans every node.
func indexWant(l *Layout, id packet.NodeID, radius float64) []packet.NodeID {
	return l.Within(id, radius)
}

func assertSameIDs(t *testing.T, label string, got, want []packet.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: index found %d nodes %v, brute force %d %v",
			label, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result[%d] = %v, want %v (got %v want %v)",
				label, i, got[i], want[i], got, want)
		}
	}
}

// Property: across random layouts, cell sizes, and radii, AppendWithin
// returns exactly Layout.Within — same membership, same ascending
// order — for every node.
func TestIndexMatchesBruteForceRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		w := 10 + rng.Float64()*300
		h := 10 + rng.Float64()*300
		l, err := Random(n, w, h, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range []float64{1, 7.5, 50, 1000} {
			ix, err := NewIndex(l, cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, radius := range []float64{0, 3, 25, 80, 500} {
				var buf []packet.NodeID
				for id := 0; id < n; id++ {
					buf = ix.AppendWithin(packet.NodeID(id), radius, buf[:0])
					assertSameIDs(t, l.Name(), buf, indexWant(l, packet.NodeID(id), radius))
				}
			}
		}
	}
}

// Degenerate geometry: duplicate points (zero distance), colinear runs
// (everything on one axis, so the grid collapses to a single row), and
// a single point.
func TestIndexDegenerateLayouts(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
	}{
		{"duplicates", []Point{{5, 5}, {5, 5}, {5, 5}, {7, 5}, {5, 5}}},
		{"colinear-x", []Point{{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {15, 0}}},
		{"colinear-y", []Point{{3, -20}, {3, 0}, {3, 20}, {3, 40}, {3, 0}}},
		{"single", []Point{{42, 42}}},
		{"two-far", []Point{{0, 0}, {1e6, 1e6}}},
	}
	for _, tc := range cases {
		l, err := FromPoints(tc.name, tc.pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range []float64{0.5, 10, 1e7} {
			ix, err := NewIndex(l, cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, radius := range []float64{0, 5, 15, 2e6} {
				for id := 0; id < l.N(); id++ {
					got := ix.AppendWithin(packet.NodeID(id), radius, nil)
					assertSameIDs(t, tc.name, got, indexWant(l, packet.NodeID(id), radius))
				}
			}
		}
	}
}

// A tiny cell over a huge bounding box must coarsen until the cell
// count fits the budget rather than allocating cols*rows cells.
func TestIndexCellBudget(t *testing.T) {
	l, err := FromPoints("sparse-extremes", []Point{{0, 0}, {1e9, 1e9}, {5, 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(l, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := ix.Cells()
	if cols*rows > maxCellsFactor*l.N()+16 {
		t.Fatalf("budget not enforced: %d x %d cells for %d nodes", cols, rows, l.N())
	}
	got := ix.AppendWithin(0, 2e9, nil)
	assertSameIDs(t, "coarsened", got, indexWant(l, 0, 2e9))
	if ix.Footprint() == 0 || ix.N() != 3 {
		t.Fatalf("Footprint=%d N=%d", ix.Footprint(), ix.N())
	}
}

func TestIndexRejectsBadArgs(t *testing.T) {
	l, err := Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(nil, 10); err == nil {
		t.Fatal("nil layout accepted")
	}
	if _, err := NewIndex(&Layout{}, 10); err == nil {
		t.Fatal("empty layout accepted")
	}
	for _, cell := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewIndex(l, cell); err == nil {
			t.Fatalf("cell %g accepted", cell)
		}
	}
	// A box that is not finite — a non-finite point, or finite corners
	// too far apart to subtract — fails instead of coarsening forever.
	for _, pts := range [][]Point{
		{{0, 0}, {math.Inf(1), 0}},
		{{0, math.NaN()}, {1, 1}},
		{{-1e308, 0}, {1e308, 0}},
	} {
		if _, err := NewIndex(&Layout{points: pts}, 10); err == nil {
			t.Fatalf("bounding box of %v accepted", pts)
		}
	}
}

// AppendWithin must append after an existing prefix without touching it.
func TestAppendWithinPreservesPrefix(t *testing.T) {
	l, err := Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []packet.NodeID{99, 98}
	got := ix.AppendWithin(4, 10, prefix)
	if got[0] != 99 || got[1] != 98 {
		t.Fatalf("prefix clobbered: %v", got)
	}
	assertSameIDs(t, "suffix", got[2:], indexWant(l, 4, 10))
}

// FuzzGridIndex drives the grid hash with arbitrary point sets —
// including duplicate and colinear points the corpus seeds below — and
// checks every query against the brute-force reference.
func FuzzGridIndex(f *testing.F) {
	// Seeds: colinear run, duplicates, one point, two coincident axes.
	f.Add([]byte{0, 0, 10, 0, 20, 0, 30, 0}, uint8(15), uint8(10))
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint8(1), uint8(1))
	f.Add([]byte{7, 7}, uint8(0), uint8(3))
	f.Add([]byte{0, 0, 0, 200, 200, 0, 200, 200}, uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, radiusB, cellB uint8) {
		if len(raw) < 2 {
			return
		}
		if len(raw) > 256 {
			raw = raw[:256]
		}
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			// Quarter-foot resolution exercises non-integer coords.
			pts = append(pts, Point{X: float64(raw[i]) / 4, Y: float64(raw[i+1]) / 4})
		}
		l, err := FromPoints("fuzz", pts)
		if err != nil {
			t.Fatal(err)
		}
		cell := float64(cellB)/8 + 0.125 // (0, 32], always positive
		ix, err := NewIndex(l, cell)
		if err != nil {
			t.Fatal(err)
		}
		radius := float64(radiusB) / 4
		var buf []packet.NodeID
		for id := 0; id < l.N(); id++ {
			buf = ix.AppendWithin(packet.NodeID(id), radius, buf[:0])
			want := l.Within(packet.NodeID(id), radius)
			if len(buf) != len(want) {
				t.Fatalf("node %d radius %g cell %g: index %v, brute force %v",
					id, radius, cell, buf, want)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("node %d radius %g cell %g: index %v, brute force %v",
						id, radius, cell, buf, want)
				}
			}
		}
	})
}

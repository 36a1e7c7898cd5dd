package topology

import (
	"math"
	"testing"

	"mnp/internal/packet"
)

func TestGridPlacement(t *testing.T) {
	l, err := Grid(3, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 15 {
		t.Fatalf("N = %d, want 15", l.N())
	}
	if l.Rows() != 3 || l.Cols() != 5 {
		t.Fatalf("dims = %dx%d", l.Rows(), l.Cols())
	}
	p0, err := l.Pos(0)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != (Point{}) {
		t.Fatalf("node 0 at %v, want origin", p0)
	}
	// Node 7 = row 1, col 2.
	p7, err := l.Pos(7)
	if err != nil {
		t.Fatal(err)
	}
	if p7 != (Point{X: 30, Y: 15}) {
		t.Fatalf("node 7 at %v", p7)
	}
	r, c, err := l.GridCoord(7)
	if err != nil || r != 1 || c != 2 {
		t.Fatalf("GridCoord(7) = (%d,%d,%v)", r, c, err)
	}
}

func TestGridRejectsBadArgs(t *testing.T) {
	for _, tt := range []struct {
		r, c int
		s    float64
	}{
		// 65536×65537 nodes would need IDs past the 32-bit address
		// space; the check fires before any allocation.
		{0, 5, 10}, {5, 0, 10}, {5, 5, 0}, {5, 5, -1}, {65536, 65537, 10},
		// Non-finite spacings, and one whose far corner overflows to
		// +Inf (2 x 1e308), leave non-finite points.
		{1, 3, math.Inf(1)}, {1, 3, math.NaN()}, {1, 3, 1e308},
	} {
		if _, err := Grid(tt.r, tt.c, tt.s); err == nil {
			t.Errorf("Grid(%d,%d,%g) accepted", tt.r, tt.c, tt.s)
		}
	}
}

func TestDistance(t *testing.T) {
	l, err := Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.Distance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-10*math.Sqrt2) > 1e-9 {
		t.Fatalf("diagonal distance = %g", d)
	}
	if _, err := l.Distance(0, 99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := l.Distance(99, 0); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestWithin(t *testing.T) {
	l, err := Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Center node 4; radius 10 reaches the four orthogonal neighbors.
	got := l.Within(4, 10)
	want := []packet.NodeID{1, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v", got, want)
		}
	}
	// Radius 15 adds the diagonals.
	if got := l.Within(4, 15); len(got) != 8 {
		t.Fatalf("Within radius 15 = %v", got)
	}
	if got := l.Within(99, 10); got != nil {
		t.Fatalf("Within for bad node = %v", got)
	}
}

func TestLine(t *testing.T) {
	l, err := Line(10, 15)
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 10 || l.Rows() != 1 || l.Cols() != 10 {
		t.Fatalf("line dims wrong: N=%d %dx%d", l.N(), l.Rows(), l.Cols())
	}
	d, err := l.Distance(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 135 {
		t.Fatalf("end-to-end = %g, want 135", d)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(20, 100, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(20, 100, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pa, _ := a.Pos(packet.NodeID(i))
		pb, _ := b.Pos(packet.NodeID(i))
		if pa != pb {
			t.Fatalf("node %d differs across same-seed layouts", i)
		}
		if pa.X < 0 || pa.X > 100 || pa.Y < 0 || pa.Y > 100 {
			t.Fatalf("node %d outside field: %v", i, pa)
		}
	}
	if _, err := Random(0, 10, 10, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Random(5, -1, 10, 1); err == nil {
		t.Fatal("negative field accepted")
	}
	if _, err := Random(5, math.Inf(1), 10, 1); err == nil {
		t.Fatal("infinite field accepted")
	}
}

func TestHopDistanceAndEdges(t *testing.T) {
	l, err := Grid(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		id   packet.NodeID
		hop  int
		edge bool
	}{
		{0, 0, true},
		{5, 1, false},  // (1,1) interior
		{10, 2, false}, // (2,2) interior
		{15, 3, true},  // far corner
		{3, 3, true},   // (0,3)
		{12, 3, true},  // (3,0)
	}
	for _, tt := range tests {
		hop, err := l.HopDistanceFromCorner(tt.id)
		if err != nil {
			t.Fatal(err)
		}
		if hop != tt.hop {
			t.Errorf("hop(%v) = %d, want %d", tt.id, hop, tt.hop)
		}
		edge, err := l.IsEdge(tt.id)
		if err != nil {
			t.Fatal(err)
		}
		if edge != tt.edge {
			t.Errorf("IsEdge(%v) = %v, want %v", tt.id, edge, tt.edge)
		}
	}
}

func TestNonGridQueriesFail(t *testing.T) {
	l, err := Random(5, 10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.GridCoord(0); err == nil {
		t.Fatal("GridCoord on random layout accepted")
	}
	if _, err := l.HopDistanceFromCorner(0); err == nil {
		t.Fatal("HopDistance on random layout accepted")
	}
	if _, err := l.IsEdge(0); err == nil {
		t.Fatal("IsEdge on random layout accepted")
	}
	if _, _, err := (&Layout{name: "g", cols: 2, rows: 2}).GridCoord(9); err == nil {
		t.Fatal("GridCoord out of range accepted")
	}
}

func TestConnected(t *testing.T) {
	l, err := Line(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Connected(10) {
		t.Fatal("chain with radius = spacing not connected")
	}
	if l.Connected(9.9) {
		t.Fatal("chain with radius < spacing connected")
	}
	if (&Layout{}).Connected(10) {
		t.Fatal("empty layout connected")
	}
	single, err := Grid(1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Connected(1) {
		t.Fatal("single node not connected")
	}
}

func TestConnectedRandom(t *testing.T) {
	// Dense field: easily connected.
	l, err := ConnectedRandom(15, 40, 40, 25, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Connected(25) {
		t.Fatal("ConnectedRandom returned a disconnected layout")
	}
	// Impossible: huge field, tiny radius, few attempts.
	if _, err := ConnectedRandom(30, 10000, 10000, 5, 1, 3); err == nil {
		t.Fatal("impossible connectivity satisfied")
	}
	if _, err := ConnectedRandom(0, 10, 10, 5, 1, 3); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestName(t *testing.T) {
	l, err := Grid(2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestFromPoints(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {0, 10}}
	l, err := FromPoints("survey", pts)
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 3 || l.Name() != "survey" {
		t.Fatalf("N=%d name=%q", l.N(), l.Name())
	}
	if l.Rows() != 0 || l.Cols() != 0 {
		t.Fatalf("point layouts must not claim grid shape: rows=%d cols=%d", l.Rows(), l.Cols())
	}
	d, err := l.Distance(0, 1)
	if err != nil || d != 10 {
		t.Fatalf("Distance(0,1) = %v, %v; want 10", d, err)
	}
	// The input slice must be copied, not aliased.
	pts[1].X = 999
	if d2, _ := l.Distance(0, 1); d2 != 10 {
		t.Fatalf("layout aliases caller slice: Distance(0,1) = %v after mutation", d2)
	}
	if _, err := FromPoints("empty", nil); err == nil {
		t.Fatal("FromPoints accepted an empty layout")
	}
	if _, err := FromPoints("nan", []Point{{math.NaN(), 0}}); err == nil {
		t.Fatal("FromPoints accepted a NaN coordinate")
	}
	// A default name is generated when none is given.
	anon, err := FromPoints("", pts[:2])
	if err != nil || anon.Name() != "points-2" {
		t.Fatalf("anonymous layout: %v, name %q", err, anon.Name())
	}
}

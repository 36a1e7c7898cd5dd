package topology

import (
	"testing"

	"mnp/internal/packet"
)

// DistanceMatrix and Within are the brute-force O(n²) references the
// index and NeighborsWithin are checked against; nothing outside tests
// reads a dense matrix or scans every node any more.

// DistanceMatrix returns the dense row-major N×N matrix of pairwise
// distances in feet: entry [a*N+b] is the distance between a and b.
func (l *Layout) DistanceMatrix() []float64 {
	n := len(l.points)
	d := make([]float64, n*n)
	for a := 0; a < n; a++ {
		pa := l.points[a]
		for b := a + 1; b < n; b++ {
			v := pa.Distance(l.points[b])
			d[a*n+b] = v
			d[b*n+a] = v
		}
	}
	return d
}

// Within returns the IDs of all nodes other than id at distance <=
// radius, in ascending ID order.
func (l *Layout) Within(id packet.NodeID, radius float64) []packet.NodeID {
	p, err := l.Pos(id)
	if err != nil {
		return nil
	}
	var out []packet.NodeID
	for i, q := range l.points {
		if packet.NodeID(i) != id && p.Distance(q) <= radius {
			out = append(out, packet.NodeID(i))
		}
	}
	return out
}

func matrixLayouts(t *testing.T) []*Layout {
	t.Helper()
	grid, err := Grid(5, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	line, err := Line(12, 7.5)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Random(30, 80, 80, 11)
	if err != nil {
		t.Fatal(err)
	}
	return []*Layout{grid, line, random}
}

func TestDistanceMatrixMatchesDistance(t *testing.T) {
	for _, l := range matrixLayouts(t) {
		n := l.N()
		d := l.DistanceMatrix()
		if len(d) != n*n {
			t.Fatalf("%s: matrix has %d entries, want %d", l.Name(), len(d), n*n)
		}
		for a := 0; a < n; a++ {
			if d[a*n+a] != 0 {
				t.Fatalf("%s: nonzero diagonal at %d", l.Name(), a)
			}
			for b := 0; b < n; b++ {
				want, err := l.Distance(packet.NodeID(a), packet.NodeID(b))
				if err != nil {
					t.Fatal(err)
				}
				// Entries must be bit-identical to a fresh computation.
				if d[a*n+b] != want {
					t.Fatalf("%s: dist[%d,%d] = %v, want %v", l.Name(), a, b, d[a*n+b], want)
				}
				if d[a*n+b] != d[b*n+a] {
					t.Fatalf("%s: matrix asymmetric at (%d,%d)", l.Name(), a, b)
				}
			}
		}
	}
}

func TestNeighborsWithinMatchesWithin(t *testing.T) {
	for _, l := range matrixLayouts(t) {
		for _, radius := range []float64{0, 7.5, 10, 15, 27, 1000} {
			table := l.NeighborsWithin(radius)
			if len(table) != l.N() {
				t.Fatalf("%s: table has %d rows, want %d", l.Name(), len(table), l.N())
			}
			for id := 0; id < l.N(); id++ {
				want := l.Within(packet.NodeID(id), radius)
				got := table[id]
				if len(got) != len(want) {
					t.Fatalf("%s r=%g node %d: %d neighbors, want %d", l.Name(), radius, id, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s r=%g node %d: neighbor[%d] = %v, want %v", l.Name(), radius, id, i, got[i], want[i])
					}
				}
			}
		}
	}
}

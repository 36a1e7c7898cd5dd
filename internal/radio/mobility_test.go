package radio

import (
	"math"
	"slices"
	"testing"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// The staleness regression: once a node moves, no lookup may serve the
// link row built before the move — not for the mover's own transmit
// row, and not for any source whose audible set the move changed.
func TestLinkRowNeverStaleAfterMove(t *testing.T) {
	// A line at 12 ft spacing with the 27 ft PowerSim range: node 0
	// hears 1 and 2.
	layout, err := topology.Line(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	geo := m.Geometry()

	before, err := m.Neighbors(0, PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if want := []packet.NodeID{1, 2}; !slices.Equal(before, want) {
		t.Fatalf("static neighbors of 0 = %v, want %v", before, want)
	}
	// Warm every source row so each following check exercises the
	// hit-then-invalidate path, not a cold miss.
	for id := 0; id < layout.N(); id++ {
		if _, err := m.Neighbors(packet.NodeID(id), PowerSim); err != nil {
			t.Fatal(err)
		}
	}

	// Move node 2 out of everyone's range.
	geo.MoveNode(2, topology.Point{X: 500, Y: 500})

	after, err := m.Neighbors(0, PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if want := []packet.NodeID{1}; !slices.Equal(after, want) {
		t.Fatalf("neighbors of 0 after the move = %v, want %v (stale row served)", after, want)
	}
	// The mover's own row must also rebuild: from (500, 500) it hears
	// nobody.
	moved, err := m.Neighbors(2, PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Fatalf("neighbors of the moved node = %v, want none", moved)
	}
	_, _, invalidations, _ := m.CacheStats()
	if invalidations < 2 {
		t.Fatalf("CacheStats invalidations = %d, want >= 2 (row of 0 and row of 2)", invalidations)
	}

	// Move it back: the freshly rebuilt rows are stale again and the
	// original audible set must reappear.
	home, _ := layout.Pos(1)
	geo.MoveNode(2, topology.Point{X: home.X + 12, Y: home.Y})
	restored, err := m.Neighbors(0, PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if want := []packet.NodeID{1, 2}; !slices.Equal(restored, want) {
		t.Fatalf("neighbors of 0 after moving back = %v, want %v", restored, want)
	}
}

// A move far outside every cached row's coverage leaves those rows
// valid: invalidation is scoped by the per-cell stamps, not global.
func TestLinkRowInvalidationIsScoped(t *testing.T) {
	layout, err := topology.Grid(2, 20, 10) // 2x20 grid, 190 ft across
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the row of node 0 (left edge), then move the far-right
	// corner node slightly.
	if _, err := m.Neighbors(0, PowerSim); err != nil {
		t.Fatal(err)
	}
	far := packet.NodeID(layout.N() - 1)
	p, _ := layout.Pos(far)
	m.Geometry().MoveNode(far, topology.Point{X: p.X + 3, Y: p.Y})
	if _, err := m.Neighbors(0, PowerSim); err != nil {
		t.Fatal(err)
	}
	hits, _, invalidations, _ := m.CacheStats()
	if invalidations != 0 {
		t.Fatalf("far move invalidated %d rows, want 0", invalidations)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (second lookup of node 0 served from cache)", hits)
	}
}

// Static mediums never consult the stamp machinery: the geometry
// allocates no epoch state until the first move and the counters stay
// untouched — the guarantee behind "golden hashes stay byte-identical
// with mobility absent".
func TestNoMovesNoInvalidation(t *testing.T) {
	layout, err := topology.Grid(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for id := 0; id < layout.N(); id++ {
			if _, err := m.Neighbors(packet.NodeID(id), PowerSim); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _, invalidations, _ := m.CacheStats()
	if invalidations != 0 {
		t.Fatalf("static run recorded %d invalidations", invalidations)
	}
	if m.Geometry().Moves() != 0 {
		t.Fatalf("static geometry reports %d moves", m.Geometry().Moves())
	}
}

// A mobility-invalidated row is repaired without allocating once its
// arrays have their size: the index query lands in the medium's
// scratch, the row keeps its map entry and LRU node, and its audible
// list, BERs and noise factors are rewritten in place.
func TestLinkRowRebuildAllocations(t *testing.T) {
	layout, err := topology.Grid(7, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const centre = 24
	home, _ := layout.Pos(centre)
	step := 0.0
	rebuild := func() {
		step++
		m.Geometry().MoveNode(centre, topology.Point{X: home.X + math.Mod(step, 2), Y: home.Y})
		row, err := m.linkRowFor(PowerSim, centre)
		if err != nil || len(row.full) < 20 {
			t.Fatalf("row of %d audible, err %v", len(row.full), err)
		}
	}
	rebuild() // the first repair sizes the scratch and the row's arrays
	rebuild()
	if n := testing.AllocsPerRun(50, rebuild); n != 0 {
		t.Fatalf("link-row repair: %v allocs, want 0", n)
	}
	if _, misses, invalidations, _ := m.CacheStats(); invalidations < 50 || misses < 50 {
		t.Fatalf("%d misses, %d invalidations: the moves did not invalidate the row", misses, invalidations)
	}
}

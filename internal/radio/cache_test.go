package radio

import (
	"math"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// cacheLayouts builds the layout shapes the experiments use: a grid, a
// line, and a random placement.
func cacheLayouts(t *testing.T) []*topology.Layout {
	t.Helper()
	grid, err := topology.Grid(6, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	line, err := topology.Line(25, 12)
	if err != nil {
		t.Fatal(err)
	}
	random, err := topology.Random(60, 100, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Layout{grid, line, random}
}

// powerLevels lists every power level with a transmit range.
var powerLevels = []int{PowerWeak, PowerIndoorLow, PowerIndoorHigh, PowerSim, PowerOutdoorLow, PowerFull}

// bruteWithin is the O(n) scan the spatial index replaced: every node
// other than id at distance <= radius, in ascending ID order.
func bruteWithin(l *topology.Layout, id packet.NodeID, radius float64) []packet.NodeID {
	pts := l.Points()
	var out []packet.NodeID
	for i, q := range pts {
		if packet.NodeID(i) != id && pts[id].Distance(q) <= radius {
			out = append(out, packet.NodeID(i))
		}
	}
	return out
}

// freshBER evaluates a directed link's BER from the layout's current
// positions the way linkBER did before the log span was hoisted and the
// noise factor carried in the row: the reference rows must match bit
// for bit.
func freshBER(g *Geometry, src, dst packet.NodeID, txRange float64) float64 {
	frac := g.pts[src].Distance(g.pts[dst]) / txRange
	if frac > 1 {
		return 1
	}
	base := g.params.BERFloor * math.Exp(math.Log(g.params.BERCeil/g.params.BERFloor)*frac*frac)
	if g.params.AsymSigma > 0 {
		base *= linkNoise(g.seed, src, dst, g.params.AsymSigma)
	}
	return math.Min(base, 1)
}

// Property: for every layout shape and every configured power level,
// the sparse per-source link rows agree exactly — membership, order,
// and BER values — with a brute-force O(n²) reference.
func TestCachedNeighborsMatchBruteForce(t *testing.T) {
	params := DefaultParams()
	for _, layout := range cacheLayouts(t) {
		m, err := NewMedium(sim.New(1), layout, params, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, power := range powerLevels {
			rangeFt, _ := RangeFeet(power)
			for id := 0; id < layout.N(); id++ {
				want := bruteWithin(layout, packet.NodeID(id), rangeFt)
				got, err := m.Neighbors(packet.NodeID(id), power)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s power %d node %d: sparse %d neighbors, brute force %d",
						layout.Name(), power, id, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s power %d node %d: neighbor[%d] = %v, want %v",
							layout.Name(), power, id, i, got[i], want[i])
					}
				}
				// The BER row must match a fresh evaluation.
				row, err := m.linkRowFor(power, packet.NodeID(id))
				if err != nil {
					t.Fatal(err)
				}
				for i, nb := range want {
					fresh := freshBER(m.geo, packet.NodeID(id), nb, rangeFt)
					if row.ber[i] != fresh {
						t.Fatalf("%s power %d link %d->%v: sparse BER %g, fresh %g",
							layout.Name(), power, id, nb, row.ber[i], fresh)
					}
				}
			}
		}
	}
}

// A bounded cache must evict down to its cap, and a rebuilt row must be
// identical to the evicted one — cache state is a pure speed/memory
// trade-off.
func TestLinkCacheEvictionIsInvisible(t *testing.T) {
	layout, err := topology.Grid(5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	m.lruCap = 3
	first := make(map[packet.NodeID][]packet.NodeID)
	firstBER := make(map[packet.NodeID][]float64)
	for id := 0; id < layout.N(); id++ {
		row, err := m.linkRowFor(PowerSim, packet.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		first[packet.NodeID(id)] = row.full
		firstBER[packet.NodeID(id)] = row.ber
		if _, _, _, entries := m.CacheStats(); entries > 3 {
			t.Fatalf("cache holds %d rows, cap 3", entries)
		}
	}
	// Every early row has been evicted by now; rebuilding must
	// reproduce it exactly.
	for id := 0; id < layout.N(); id++ {
		row, err := m.linkRowFor(PowerSim, packet.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		want, wantBER := first[packet.NodeID(id)], firstBER[packet.NodeID(id)]
		if len(row.full) != len(want) {
			t.Fatalf("node %d: rebuilt row has %d neighbors, want %d", id, len(row.full), len(want))
		}
		for i := range want {
			if row.full[i] != want[i] || row.ber[i] != wantBER[i] {
				t.Fatalf("node %d: rebuilt row differs at %d", id, i)
			}
		}
	}
	hits, misses, _, _ := m.CacheStats()
	if misses <= uint64(layout.N()) {
		t.Fatalf("expected rebuild misses, got %d misses / %d hits", misses, hits)
	}
}

// CacheHitRate is 0 before the first lookup (not NaN), and tracks
// hits/(hits+misses) afterwards.
func TestCacheHitRateDefinedBeforeFirstLookup(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.CacheHitRate(); r != 0 {
		t.Fatalf("pristine medium: CacheHitRate() = %v, want 0", r)
	}
	if _, err := m.linkRowFor(PowerSim, 0); err != nil { // miss
		t.Fatal(err)
	}
	if r := m.CacheHitRate(); r != 0 {
		t.Fatalf("after one miss: CacheHitRate() = %v, want 0", r)
	}
	if _, err := m.linkRowFor(PowerSim, 0); err != nil { // hit
		t.Fatal(err)
	}
	if r := m.CacheHitRate(); r != 0.5 {
		t.Fatalf("after 1 hit / 1 miss: CacheHitRate() = %v, want 0.5", r)
	}
	hits, misses, _, _ := m.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("CacheStats() = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// Neighbors for an out-of-range node stays (nil, nil), matching the
// pre-cache behavior.
func TestNeighborsOutOfRangeNode(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Neighbors(packet.NodeID(99), PowerSim)
	if err != nil || got != nil {
		t.Fatalf("Neighbors(out-of-range) = %v, %v; want nil, nil", got, err)
	}
	if _, err := m.Neighbors(0, 9999); err == nil {
		t.Fatal("unconfigured power level accepted")
	}
}

// The returned neighbor slice is a copy: mutating it must not corrupt
// the cache.
func TestNeighborsReturnsCopy(t *testing.T) {
	layout, err := topology.Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Neighbors(4, PowerSim)
	if err != nil || len(first) == 0 {
		t.Fatalf("Neighbors = %v, %v", first, err)
	}
	first[0] = 0xAAAA
	second, err := m.Neighbors(4, PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] == 0xAAAA {
		t.Fatal("mutating the returned slice corrupted the cache")
	}
}

// Transmissions are recycled through the free list without perturbing
// delivery: back-to-back frames on a quiet channel all arrive.
func TestTransmissionPoolReuse(t *testing.T) {
	layout, err := topology.Grid(1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNet(t, layout, cleanParams())
	n.allOn()
	for i := 0; i < 50; i++ {
		if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
			t.Fatal(err)
		}
		n.k.Run(time.Hour)
	}
	if len(n.rxs) != 50 {
		t.Fatalf("received %d frames, want 50", len(n.rxs))
	}
	if got := len(n.m.freeTx); got != 1 {
		t.Fatalf("free list holds %d transmissions, want 1 recycled", got)
	}
}

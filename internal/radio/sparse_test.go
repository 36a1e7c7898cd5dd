package radio

import (
	"testing"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// Property (the issue's acceptance bar for the sparse rewrite): across
// random layouts, every configured power level, AND every geometry
// seed, the spatial-index link rows — neighbor membership, order,
// audibility, and per-link BER — are exactly equal to a brute-force
// O(n²) reference computed from the dense distance matrix. The seed
// axis matters because link noise is hashed per (seed, src, dst): a
// row that accidentally swapped src/dst or reused a cached distance
// would still pass at one seed by luck.
func TestSparseGeometryMatchesBruteForceAcrossSeeds(t *testing.T) {
	params := DefaultParams()
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		layout, err := topology.Random(50+int(seed%37), 90, 140, seed)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMedium(sim.New(seed), layout, params, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := layout.N()
		for _, power := range powerLevels {
			rangeFt, _ := RangeFeet(power)
			for id := 0; id < n; id++ {
				src := packet.NodeID(id)
				want := bruteWithin(layout, src, rangeFt)
				row, err := m.linkRowFor(power, src)
				if err != nil {
					t.Fatal(err)
				}
				if len(row.full) != len(want) {
					t.Fatalf("seed %d power %d node %d: sparse %d audible, brute force %d",
						seed, power, id, len(row.full), len(want))
				}
				for i, nb := range want {
					if row.full[i] != nb {
						t.Fatalf("seed %d power %d node %d: audible[%d] = %v, want %v",
							seed, power, id, i, row.full[i], nb)
					}
					fresh := freshBER(m.geo, src, nb, rangeFt)
					if row.ber[i] != fresh {
						t.Fatalf("seed %d power %d link %d->%v: sparse BER %g, brute force %g",
							seed, power, id, nb, row.ber[i], fresh)
					}
				}
				if row.rangeFt != rangeFt {
					t.Fatalf("seed %d power %d node %d: rangeFt %g, want %g",
						seed, power, id, row.rangeFt, rangeFt)
				}
			}
		}
	}
}

// The sparse geometry's footprint must be O(n): each node costs the
// point (16 B) plus two int32 index entries, nowhere near the O(n²)
// matrix and per-power tables it replaced.
func TestGeometryFootprintLinear(t *testing.T) {
	for _, n := range []int{100, 400} {
		layout, err := topology.Random(n, 200, 200, 9)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := NewGeometry(layout, DefaultParams(), 9)
		if err != nil {
			t.Fatal(err)
		}
		fp := geo.Footprint()
		// Points + ids + cellStart; the cell budget caps cellStart at
		// maxCellsFactor*n+17 entries.
		limit := uint64(n)*16 + uint64(n)*4 + uint64(4*n+17)*4
		if fp == 0 || fp > limit {
			t.Fatalf("n=%d footprint %d bytes, want (0, %d]", n, fp, limit)
		}
		dense := uint64(n) * uint64(n) * 8
		if n >= 400 && fp >= dense {
			t.Fatalf("n=%d sparse footprint %d not below dense matrix %d", n, fp, dense)
		}
	}
}

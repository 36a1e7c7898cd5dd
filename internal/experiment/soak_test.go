package experiment

import (
	"fmt"
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/packet"
	"mnp/internal/radio"
)

// TestSoakInvariantsAcrossSeeds sweeps seeds, topologies and protocol
// variants, asserting the reproduction's core invariants on every run:
// full coverage, byte-identical images, EEPROM write-once, and (for
// MNP) no concurrent same-neighborhood data senders. Skipped in
// -short mode.
func TestSoakInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak sweep skipped in -short mode")
	}
	type variant struct {
		name  string
		setup func(seed int64) Setup
	}
	variants := []variant{
		{"mnp-grid", func(seed int64) Setup {
			return Setup{Rows: 5, Cols: 5, ImagePackets: 2 * image.DefaultSegmentPackets, Seed: seed}
		}},
		{"mnp-line", func(seed int64) Setup {
			return Setup{Rows: 1, Cols: 7, Spacing: 18, ImagePackets: image.DefaultSegmentPackets, Seed: seed}
		}},
		{"mnp-lowpower", func(seed int64) Setup {
			return Setup{Rows: 3, Cols: 4, Spacing: 15, ImagePackets: 100, Power: radio.PowerIndoorLow, Seed: seed}
		}},
		{"deluge-grid", func(seed int64) Setup {
			return Setup{Rows: 4, Cols: 4, ImagePackets: 96, Protocol: ProtocolDeluge, Seed: seed}
		}},
		{"moap-grid", func(seed int64) Setup {
			return Setup{Rows: 3, Cols: 3, ImagePackets: 64, Protocol: ProtocolMOAP, Seed: seed}
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(100); seed < 105; seed++ {
				s := v.setup(seed)
				s.Name = fmt.Sprintf("soak-%s-%d", v.name, seed)
				s.Limit = 12 * time.Hour
				res, err := Run(s)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Completed {
					t.Fatalf("seed %d: incomplete (%d/%d)", seed,
						res.Network.CompletedCount(), res.Layout.N())
				}
				if err := res.VerifyImages(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if s.Protocol == "" || s.Protocol == ProtocolMNP {
					if viol := res.Collector.ConcurrencyViolations(); viol > 2 {
						t.Fatalf("seed %d: %d concurrent same-neighborhood senders", seed, viol)
					}
					// Every node must have seen an advertisement before
					// completing (sanity of the metrics pipeline).
					for i := 0; i < res.Layout.N(); i++ {
						id := packet.NodeID(i)
						if id == s.BaseID {
							continue
						}
						if _, ok := res.Collector.FirstAdvertisementHeard(id); !ok {
							t.Fatalf("seed %d: node %v completed without hearing an advertisement", seed, id)
						}
					}
				}
			}
		})
	}
}

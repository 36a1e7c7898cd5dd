package core

import (
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// TestMultiProgramOverlappingSubsets realizes the paper's §6 scenario:
// two different programs disseminated concurrently to non-disjoint
// subsets of one network. Program 1 goes to every node from the
// north-west corner; program 2 goes only to even-numbered nodes from a
// south-east source. Each mote runs one MNP instance per subscribed
// program behind a node.Demux sharing its radio and EEPROM.
func TestMultiProgramOverlappingSubsets(t *testing.T) {
	img1, err := image.Random(1, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	img2raw := image.WithSegmentPackets(64)
	img2, err := image.Random(2, 1, 51, img2raw)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := topology.Grid(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.New(9)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), 10)
	if err != nil {
		t.Fatal(err)
	}
	const prog2Base = packet.NodeID(14)
	wantsProg2 := func(id packet.NodeID) bool { return id%2 == 0 }

	subsOf := make(map[packet.NodeID][]uint8)
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		ncfg := node.Config{TxPower: radio.PowerSim}
		var cfg1 Config
		if id == 0 {
			cfg1.Base = true
			cfg1.Image = img1
		}
		if !wantsProg2(id) {
			subsOf[id] = []uint8{1}
			d, err := node.NewDemux(node.ProgramClassifier(1), New(cfg1))
			if err != nil {
				t.Fatal(err)
			}
			return d, ncfg
		}
		var cfg2 Config
		if id == prog2Base {
			cfg2.Base = true
			cfg2.Image = img2
		}
		subsOf[id] = []uint8{1, 2}
		d, err := node.NewDemux(node.ProgramClassifier(1, 2), New(cfg1), New(cfg2))
		if err != nil {
			t.Fatal(err)
		}
		return d, ncfg
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	if !kernel.RunUntil(nw.AllCompleted, 6*time.Hour) {
		t.Fatalf("multi-program dissemination incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}

	// Verify both programs, reading through the demux segment spaces.
	for _, n := range nw.Nodes {
		for subIdx, prog := range subsOf[n.ID()] {
			img := img1
			if prog == 2 {
				img = img2
			}
			offset := subIdx * node.SegSpace
			data, err := img.Reassemble(img.Geometry(), func(seg, pkt int) []byte {
				return n.EEPROM().Read(offset+seg, pkt)
			})
			if err != nil {
				t.Fatalf("node %v program %d: %v", n.ID(), prog, err)
			}
			if !img.Verify(data) {
				t.Fatalf("node %v program %d: image mismatch", n.ID(), prog)
			}
		}
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			t.Fatalf("node %v rewrote EEPROM (max %d)", n.ID(), w)
		}
		// Odd nodes must not have collected any of program 2.
		if !wantsProg2(n.ID()) {
			for seg := 1; seg < node.SegSpace; seg++ {
				if n.EEPROM().Has(node.SegSpace+seg, 0) {
					t.Fatalf("unsubscribed node %v stored program 2 data", n.ID())
				}
			}
		}
	}
}

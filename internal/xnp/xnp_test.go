package xnp

import (
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

func buildNet(t *testing.T, layout *topology.Layout, segments int, seed int64) (*node.Network, *sim.Kernel, *image.Image) {
	t.Helper()
	img, err := image.Random(1, segments, seed+9)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.New(seed)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		cfg := Config{}
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		return New(cfg), node.Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	return nw, kernel, img
}

func TestSingleHopCompletes(t *testing.T) {
	l, err := topology.Grid(2, 2, 10) // all within 27 ft of the base
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, img := buildNet(t, l, 1, 1)
	if !kernel.RunUntil(nw.AllCompleted, time.Hour) {
		t.Fatalf("incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
	for _, n := range nw.Nodes {
		data, err := img.Reassemble(Geometry(img), n.EEPROM().Read)
		if err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		if !img.Verify(data) {
			t.Fatalf("node %v image mismatch", n.ID())
		}
		if n.EEPROM().MaxWriteCount() > 1 {
			t.Fatalf("node %v rewrote EEPROM", n.ID())
		}
	}
}

func TestOutOfRangeNodesNeverComplete(t *testing.T) {
	// The defining XNP limitation: node 2 at 40 ft (range 27 ft) gets
	// nothing.
	l, err := topology.Line(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, _ := buildNet(t, l, 1, 2)
	kernel.Run(20 * time.Minute)
	if !nw.Node(1).Completed() {
		t.Fatal("in-range node incomplete")
	}
	if nw.Node(2).Completed() {
		t.Fatal("out-of-range node completed under single-hop XNP")
	}
}

func TestRetransmissionRoundsRepairLoss(t *testing.T) {
	// A lossy single hop still completes thanks to query/status rounds.
	l, err := topology.Line(2, 24) // ~89% of range: heavy loss
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, _ := buildNet(t, l, 1, 3)
	if !kernel.RunUntil(nw.AllCompleted, 4*time.Hour) {
		t.Fatalf("lossy XNP incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
}

func TestBaseWithoutImagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Base: true}).Init(nodetest.New(0))
}

package moap

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

func verify(t *testing.T, nw *node.Network, img *image.Image) {
	t.Helper()
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

func TestSingleHopTransfer(t *testing.T) {
	l, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, img := buildNet(t, l, 1, 1)
	if !kernel.RunUntil(nw.AllCompleted, 2*time.Hour) {
		t.Fatalf("incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
	verify(t, nw, img)
}

func TestMultihopRipple(t *testing.T) {
	// MOAP is hop-by-hop: node 2 (out of the base's range) can only get
	// the image after node 1 holds all of it.
	l, err := topology.Line(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, img := buildNet(t, l, 1, 2)
	if !kernel.RunUntil(nw.AllCompleted, 4*time.Hour) {
		t.Fatalf("incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
	verify(t, nw, img)
	// Strict hop-by-hop ordering of completion times.
	for i := 1; i < 4; i++ {
		a := nw.Node(packet.NodeID(i - 1)).CompletedAt()
		b := nw.Node(packet.NodeID(i)).CompletedAt()
		if i > 1 && b < a {
			t.Fatalf("node %d completed before its upstream (%v < %v)", i, b, a)
		}
	}
}

func TestGridTransfer(t *testing.T) {
	l, err := topology.Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, img := buildNet(t, l, 1, 3)
	if !kernel.RunUntil(nw.AllCompleted, 4*time.Hour) {
		t.Fatalf("incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
	verify(t, nw, img)
}

func TestRadioAlwaysOn(t *testing.T) {
	l, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	nw, kernel, _ := buildNet(t, l, 1, 4)
	offSeen := false
	kernel.RunUntil(func() bool {
		for _, n := range nw.Nodes {
			if !n.IsRadioOn() {
				offSeen = true
			}
		}
		return nw.AllCompleted()
	}, 2*time.Hour)
	if offSeen {
		t.Fatal("a MOAP radio turned off")
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

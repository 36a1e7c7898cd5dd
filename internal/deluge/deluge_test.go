package deluge

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

type testnet struct {
	kernel  *sim.Kernel
	network *node.Network
	img     *image.Image
	protos  []*Deluge
}

func buildNet(t *testing.T, rows, cols int, spacing float64, packets int, seed int64) *testnet {
	t.Helper()
	// Build an image with the requested number of 22-byte packets.
	raw := make([]byte, packets*22)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	img, err := image.New(1, raw)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := topology.Grid(rows, cols, spacing)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.New(seed)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	tn := &testnet{kernel: kernel, img: img}
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		cfg := Config{}
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		d := New(cfg)
		tn.protos = append(tn.protos, d)
		return d, node.Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		t.Fatal(err)
	}
	tn.network = nw
	nw.Start()
	return tn
}

func (tn *testnet) verifyAll(t *testing.T) {
	t.Helper()
	for _, n := range tn.network.Nodes {
		if !n.Completed() {
			t.Fatalf("node %v incomplete", n.ID())
		}
		data, err := tn.img.Reassemble(Geometry(tn.img), n.EEPROM().Read)
		if err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		if !tn.img.Verify(data) {
			t.Fatalf("node %v image mismatch", n.ID())
		}
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			t.Fatalf("node %v rewrote EEPROM (max %d)", n.ID(), w)
		}
	}
}

func TestTwoNodeTransfer(t *testing.T) {
	tn := buildNet(t, 1, 2, 10, 100, 1) // 100 packets = 3 pages
	if !tn.kernel.RunUntil(tn.network.AllCompleted, time.Hour) {
		t.Fatalf("incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestMultihopPipelinedTransfer(t *testing.T) {
	// 1×5 line at 20 ft: strictly multihop; 96 packets = 2 pages.
	tn := buildNet(t, 1, 5, 20, 96, 2)
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 2*time.Hour) {
		t.Fatalf("incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestGridTransfer(t *testing.T) {
	tn := buildNet(t, 3, 3, 10, 96, 3)
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 2*time.Hour) {
		t.Fatalf("incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestRadioNeverSleeps(t *testing.T) {
	// The defining contrast with MNP: Deluge's idle listening time is
	// its completion time.
	tn := buildNet(t, 1, 3, 10, 48, 4)
	offSeen := false
	done := tn.kernel.RunUntil(func() bool {
		for _, n := range tn.network.Nodes {
			if !n.Dead() && !n.IsRadioOn() {
				offSeen = true
			}
		}
		return tn.network.AllCompleted()
	}, time.Hour)
	if !done {
		t.Fatal("incomplete")
	}
	if offSeen {
		t.Fatal("a Deluge radio turned off")
	}
}

func TestPagesArriveInOrder(t *testing.T) {
	tn := buildNet(t, 1, 2, 10, 144, 5) // 3 pages
	if !tn.kernel.RunUntil(tn.network.AllCompleted, time.Hour) {
		t.Fatal("incomplete")
	}
	if got := tn.protos[1].HavePages(); got != 3 {
		t.Fatalf("HavePages = %d, want 3", got)
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

func TestDeterministic(t *testing.T) {
	run := func() time.Duration {
		tn := buildNet(t, 2, 2, 10, 48, 7)
		if !tn.kernel.RunUntil(tn.network.AllCompleted, time.Hour) {
			t.Fatal("incomplete")
		}
		return tn.network.CompletionTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

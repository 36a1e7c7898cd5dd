package radio

import (
	"bytes"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// TestShardGhostCarriesRouting pins the ghost metadata the tiled
// engine's bounds prefilter consumes: a boundary transmission exports
// exactly one ghost stamped with the transmitter's position and range,
// and replaying it into the peer shard delivers to that shard's owned
// nodes. Ownership here is deliberately tile-shaped (a diagonal split,
// not a contiguous strip): shard A owns {0, 3}, shard B owns {1, 2}.
func TestShardGhostCarriesRouting(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	geo, err := NewGeometry(layout, cleanParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ownA := []packet.NodeID{0, 3}
	ownB := []packet.NodeID{1, 2}
	mA, err := NewShardMedium(k, geo, ownA)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := NewShardMedium(k, geo, ownB)
	if err != nil {
		t.Fatal(err)
	}
	rx := map[packet.NodeID]int{}
	register := func(m *Medium, owned []packet.NodeID) {
		for _, id := range owned {
			id := id
			if err := m.Register(id, func(packet.Packet, RxMeta) { rx[id]++ }); err != nil {
				t.Fatal(err)
			}
			m.SetRadio(id, true)
		}
	}
	register(mA, ownA)
	register(mB, ownB)

	air, err := mA.Transmit(0, adv(0), PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	ghosts := mA.TakeOutbox()
	if len(ghosts) != 1 {
		t.Fatalf("got %d ghosts, want 1 (nodes 1 and 2 are in range and owned elsewhere)", len(ghosts))
	}
	g := ghosts[0]
	pos, err := layout.Pos(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Src != 0 || g.X != pos.X || g.Y != pos.Y {
		t.Fatalf("ghost routing fields src=%v at (%g,%g), want node 0 at (%g,%g)",
			g.Src, g.X, g.Y, pos.X, pos.Y)
	}
	wantRange, err := geo.RangeFor(PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if g.RangeFt != wantRange {
		t.Fatalf("ghost RangeFt = %g, want the power-%d range %g", g.RangeFt, PowerSim, wantRange)
	}
	if g.Start != 0 || g.End != air || len(g.Frame) == 0 {
		t.Fatalf("ghost occupancy [%v,%v) frame %d bytes, want [0,%v) and a non-empty frame",
			g.Start, g.End, len(g.Frame), air)
	}
	if len(mA.TakeOutbox()) != 0 {
		t.Fatal("TakeOutbox did not drain the outbox")
	}

	// The ghost replays into B but must be rejected where its source
	// lives.
	if err := mB.InsertGhost(g); err != nil {
		t.Fatal(err)
	}
	if err := mA.InsertGhost(g); err == nil {
		t.Fatal("shard A accepted a ghost from its own node")
	}

	k.Run(time.Second)
	if rx[3] != 1 || mA.Deliveries() != 1 {
		t.Fatalf("shard A: node 3 rx=%d deliveries=%d, want 1 local delivery", rx[3], mA.Deliveries())
	}
	if rx[1] != 1 || rx[2] != 1 || mB.Deliveries() != 2 {
		t.Fatalf("shard B: rx[1]=%d rx[2]=%d deliveries=%d, want the ghost delivered to both",
			rx[1], rx[2], mB.Deliveries())
	}
}

// TestDeliveriesCountsOnlySuccess: the delivery counter the
// repartitioner reads must track successful receptions, not attempts —
// an out-of-range transmission moves nothing.
func TestDeliveriesCountsOnlySuccess(t *testing.T) {
	layout, err := topology.Line(2, 100) // 100 ft apart, PowerSim range 27 ft
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNet(t, layout, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	if got := n.m.Deliveries(); got != 0 {
		t.Fatalf("Deliveries() = %d after an out-of-range transmission, want 0", got)
	}
	close, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	n2 := newTestNet(t, close, cleanParams())
	n2.allOn()
	if _, err := n2.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n2.k.Run(time.Second)
	if got := n2.m.Deliveries(); got != 1 {
		t.Fatalf("Deliveries() = %d after an in-range transmission, want 1", got)
	}
}

// Exporting a boundary frame buys nothing once the outbox and its frame
// arena have their size: a window of boundary transmits followed by the
// barrier's TakeOutbox allocates as little as the same window on a
// medium with no foreign receiver — and the arena hands every ghost its
// own frame.
func TestBoundaryTransmitAllocations(t *testing.T) {
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	window := func(owned []packet.NodeID) (allocs float64, ghosts int) {
		k := sim.New(1)
		geo, err := NewGeometry(layout, cleanParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewShardMedium(k, geo, owned)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range owned {
			if err := m.Register(id, func(packet.Packet, RxMeta) {}); err != nil {
				t.Fatal(err)
			}
			m.SetRadio(id, true)
		}
		pkts := []packet.Packet{adv(0), &packet.Data{Src: 0, ProgramID: 1, SegID: 1, PacketID: 3, Payload: make([]byte, 22)}}
		want := [][]byte{packet.AppendEncode(nil, pkts[0]), packet.AppendEncode(nil, pkts[1])}
		run := func() {
			for _, p := range pkts {
				if _, err := m.Transmit(0, p, PowerSim); err != nil {
					t.Fatal(err)
				}
				k.Run(k.Now() + time.Second)
			}
			out := m.TakeOutbox()
			ghosts = len(out)
			for i, g := range out {
				if !bytes.Equal(g.Frame, want[i]) {
					t.Fatalf("ghost %d carries frame %x, want %x", i, g.Frame, want[i])
				}
			}
		}
		run() // warms the transmission pool, the outbox and the arena
		return testing.AllocsPerRun(20, run), ghosts
	}
	local, n := window([]packet.NodeID{0, 1, 2, 3})
	if n != 0 {
		t.Fatalf("a medium owning every mote exported %d ghosts", n)
	}
	boundary, n := window([]packet.NodeID{0, 3})
	if n != 2 {
		t.Fatalf("boundary window exported %d ghosts, want 2", n)
	}
	if boundary > local {
		t.Fatalf("boundary window: %v allocs, %v without a foreign receiver — the export should add none", boundary, local)
	}
}

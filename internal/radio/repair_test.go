package radio

import (
	"math"
	"slices"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// ownedIDs lists the motes a medium simulates; nil for a sequential one.
func ownedIDs(m *Medium) []packet.NodeID {
	if m.owned == nil {
		return nil
	}
	var ids []packet.NodeID
	for i, own := range m.owned {
		if own {
			ids = append(ids, packet.NodeID(i))
		}
	}
	return ids
}

// checkFreshRow fails unless row, as served by m, equals a fresh build of
// the same instant: its audible list is bruteWithin's, every BER is
// freshBER's bit for bit, and its delivery view and boundary flag are
// those of a row a new medium with m's ownership builds on a miss.
func checkFreshRow(t testing.TB, m *Medium, row *linkRow) {
	t.Helper()
	g, src := m.geo, row.key.src
	if want := bruteWithin(g.layout, src, row.rangeFt); !slices.Equal(row.full, want) {
		t.Fatalf("row of %v at power %d lists %v, brute force %v", src, row.key.power, row.full, want)
	}
	if len(row.ber) != len(row.full) {
		t.Fatalf("row of %v: %d BERs for %d links", src, len(row.ber), len(row.full))
	}
	for i, dst := range row.full {
		if got, want := row.ber[i], freshBER(g, src, dst, row.rangeFt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("link %v->%v at power %d: BER %x, fresh %x", src, dst, row.key.power, math.Float64bits(got), math.Float64bits(want))
		}
	}
	fresh, err := NewShardMedium(sim.New(1), g, ownedIDs(m))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.linkRowFor(row.key.power, src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(row.deliver, want.deliver) || (row.deliver == nil) != (want.deliver == nil) || row.boundary != want.boundary {
		t.Fatalf("row of %v: deliver %v boundary %v, a fresh row has %v %v", src, row.deliver, row.boundary, want.deliver, want.boundary)
	}
}

// Property: over random-waypoint moves, every row a sequential or an
// owned medium serves after each step equals a fresh build of that
// instant — with and without link noise, at two powers, through first
// repairs (no carried noise yet) and later ones.
func TestLinkRowRepairIsExact(t *testing.T) {
	for _, sigma := range []float64{DefaultParams().AsymSigma, 0} {
		layout, err := topology.Random(240, 120, 120, 5)
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.AsymSigma = sigma
		geo, err := NewGeometry(layout, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		var evens []packet.NodeID
		for id := 0; id < layout.N(); id += 2 {
			evens = append(evens, packet.NodeID(id))
		}
		seq, err := NewShardMedium(sim.New(1), geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		owned, err := NewShardMedium(sim.New(1), geo, evens)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := topology.NewWaypoint(layout, topology.WaypointConfig{SpeedMin: 1, SpeedMax: 6, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			for _, m := range []*Medium{seq, owned} {
				for _, power := range []int{PowerSim, PowerOutdoorLow} {
					for id := 0; id < layout.N(); id++ {
						row, err := m.linkRowFor(power, packet.NodeID(id))
						if err != nil {
							t.Fatal(err)
						}
						checkFreshRow(t, m, row)
					}
				}
			}
			for _, mv := range wp.Moves(time.Duration(step+1) * 2 * time.Second) {
				geo.MoveNode(mv.ID, mv.To)
			}
		}
		for _, m := range []*Medium{seq, owned} {
			if _, _, invalidations, _ := m.CacheStats(); invalidations < uint64(layout.N()) {
				t.Fatalf("sigma %g: %d repairs, the waypoint moves should have made hundreds", sigma, invalidations)
			}
		}
	}
}

// collisionLog records which (receiver, transmitter) pairs lost a frame.
type collisionLog struct {
	NopSink
	lost map[[2]packet.NodeID]int
}

func (c *collisionLog) FrameCollided(dst, src packet.NodeID, _ packet.Kind) {
	c.lost[[2]packet.NodeID{dst, src}]++
}

// The in-flight trap: a row repaired while a frame it was built for is
// still in the air must leave that frame its pre-move audible list and
// BERs — it collides and delivers as it started — and take fresh arrays
// itself. With nothing in the air, a repair writes the row's own arrays.
func TestLinkRowRepairUnderFrameInAir(t *testing.T) {
	// A line at 10 ft spacing with the 27 ft PowerSim range: 0 hears 1
	// and 2.
	layout, err := topology.Line(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := cleanParams()
	p.AsymSigma = 0.3 // distinct BERs per link, still all but lossless
	n := newTestNet(t, layout, p)
	n.allOn()
	log := &collisionLog{lost: map[[2]packet.NodeID]int{}}
	n.m.SetSink(log)
	geo := n.m.Geometry()

	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	a := n.m.active[0]
	full, ber := slices.Clone(a.full), slices.Clone(a.ber)
	if !slices.Equal(full, []packet.NodeID{1, 2}) {
		t.Fatalf("frame from 0 audible at %v, want [1 2]", full)
	}
	// Mid-frame, the source moves 5 ft and member 2 leaves for good:
	// from (5, 0) node 0 hears 1 and 3, a list of the same length.
	geo.MoveNode(0, topology.Point{X: 5})
	geo.MoveNode(2, topology.Point{X: 500, Y: 500})
	now, err := n.m.Neighbors(0, PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(now, []packet.NodeID{1, 3}) {
		t.Fatalf("repaired neighbours of 0 = %v, want [1 3]", now)
	}
	row := n.m.links[linkKey{power: PowerSim, src: 0}]
	if &row.full[0] == &a.full[0] || &row.ber[0] == &a.ber[0] {
		t.Fatal("the repair wrote the arrays a frame in the air still reads")
	}
	// Node 3 answers at once; its frame overlaps the first at node 1,
	// which only the pre-move list makes a common receiver of both.
	if _, err := n.m.Transmit(3, adv(3), PowerSim); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.full, full) || !slices.Equal(a.ber, ber) {
		t.Fatalf("frame in the air now reads %v / %v, it started with %v / %v", a.full, a.ber, full, ber)
	}
	n.k.Run(time.Second)
	if log.lost[[2]packet.NodeID{1, 0}] != 1 {
		t.Fatalf("node 1 lost %d frames from 0 to collision, want 1", log.lost[[2]packet.NodeID{1, 0}])
	}
	from0 := map[packet.NodeID]bool{}
	for _, r := range n.rxs {
		if r.meta.From == 0 {
			from0[r.at] = true
		}
	}
	if !from0[2] || from0[3] || len(from0) != 1 {
		t.Fatalf("frame from 0 reached %v, want node 2 alone: its pre-move list, less the collision", from0)
	}

	// Nothing in the air: the next repair reuses the row's arrays.
	fullAt, berAt := &row.full[0], &row.ber[0]
	geo.MoveNode(0, topology.Point{X: 6})
	if _, err := n.m.Neighbors(0, PowerSim); err != nil {
		t.Fatal(err)
	}
	if &row.full[0] != fullAt || &row.ber[0] != berAt {
		t.Fatal("a repair with no frame in the air took fresh arrays")
	}
	checkFreshRow(t, n.m, row)
	if _, _, invalidations, _ := n.m.CacheStats(); invalidations < 2 {
		t.Fatalf("%d invalidations, want the two repairs of row 0", invalidations)
	}
}

// A frame that is delivering still lends its arrays: a handler that
// repairs the sender's row between two deliveries of one frame must not
// redirect the rest of them.
func TestLinkRowRepairFromHandlerMidDelivery(t *testing.T) {
	layout, err := topology.Line(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNet(t, layout, cleanParams())
	n.allOn()
	if err := n.m.Register(1, func(packet.Packet, RxMeta) {
		if _, err := n.m.Neighbors(0, PowerSim); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	// From (5, 0), with node 2 gone, node 0 hears 1 and 3.
	n.m.Geometry().MoveNode(0, topology.Point{X: 5})
	n.m.Geometry().MoveNode(2, topology.Point{X: 500, Y: 500})
	n.k.Run(time.Second)
	if len(n.rxs) != 1 || n.rxs[0].at != 2 {
		t.Fatalf("after node 1's handler repaired the row, the frame reached %v, want node 2 alone", n.rxs)
	}
}

// A ghost borrows the row of its source on the receiving tile the same
// way: repairing that row mid-frame leaves the ghost its arrays.
func TestLinkRowRepairUnderGhostInAir(t *testing.T) {
	layout, err := topology.Line(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(1)
	geo, err := NewGeometry(layout, cleanParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := NewShardMedium(k, geo, []packet.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := NewShardMedium(k, geo, []packet.NodeID{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	got := map[packet.NodeID]bool{}
	mA.SetRadio(0, true)
	for id := packet.NodeID(1); id < 6; id++ {
		id := id
		if err := mB.Register(id, func(packet.Packet, RxMeta) { got[id] = true }); err != nil {
			t.Fatal(err)
		}
		mB.SetRadio(id, true)
	}
	if _, err := mA.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	for _, g := range mA.TakeOutbox() {
		if err := mB.InsertGhost(g); err != nil {
			t.Fatal(err)
		}
	}
	ghost := mB.active[0]
	full, deliver := slices.Clone(ghost.full), slices.Clone(ghost.deliver)
	geo.MoveNode(0, topology.Point{X: 5})
	geo.MoveNode(2, topology.Point{X: 500, Y: 500})
	row, err := mB.linkRowFor(PowerSim, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkFreshRow(t, mB, row)
	if &row.full[0] == &ghost.full[0] || !slices.Equal(ghost.full, full) || !slices.Equal(ghost.deliver, deliver) {
		t.Fatalf("repair under a ghost: ghost reads %v / %v, started with %v / %v", ghost.full, ghost.deliver, full, deliver)
	}
	k.Run(time.Second)
	if !got[1] || !got[2] || got[3] {
		t.Fatalf("ghost from 0 reached %v, want its pre-move receivers 1 and 2", got)
	}
}

// snapshot is what a transmission borrowed from its row when it started.
type snapshot struct {
	full    []packet.NodeID
	ber     []float64
	deliver []int32
}

// FuzzLinkRowRepair drives random moves, lookups, transmits and clock
// advances through a sequential and an owned medium over one geometry.
// Every row served must equal a fresh build of that instant, and every
// frame in the air must keep reading what it borrowed at its start.
// Each 4-byte opcode is (op, id, x, y).
func FuzzLinkRowRepair(f *testing.F) {
	f.Add([]byte{0, 0, 40, 0, 80, 0, 120, 0, 160, 0}, []byte{2, 0, 0, 0, 0, 1, 200, 0, 1, 0, 0, 0, 3, 0, 9, 0})
	f.Add([]byte{10, 10, 20, 10, 30, 10, 10, 20, 20, 20, 30, 20}, []byte{2, 4, 0, 0, 0, 4, 90, 90, 1, 4, 0, 0, 5, 1, 0, 0, 0, 2, 0, 0, 1, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 255, 255}, []byte{4, 0, 0, 0, 0, 2, 1, 1, 1, 0, 0, 0, 3, 0, 200, 0})
	f.Fuzz(func(t *testing.T, raw, ops []byte) {
		if len(raw) < 2 {
			return
		}
		raw, ops = raw[:min(len(raw), 128)], ops[:min(len(ops), 512)]
		pts := make([]topology.Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, topology.Point{X: float64(raw[i]) / 4, Y: float64(raw[i+1]) / 4})
		}
		layout, err := topology.FromPoints("fuzz-repair", pts)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.New(1)
		geo, err := NewGeometry(layout, DefaultParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		var evens []packet.NodeID
		for id := 0; id < len(pts); id += 2 {
			evens = append(evens, packet.NodeID(id))
		}
		seq, err := NewShardMedium(k, geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		owned, err := NewShardMedium(k, geo, evens)
		if err != nil {
			t.Fatal(err)
		}
		media := []*Medium{seq, owned}
		for id := range pts {
			seq.SetRadio(packet.NodeID(id), true)
			owned.SetRadio(packet.NodeID(id), true)
		}
		borrowed := map[*transmission]snapshot{}
		for i := 0; i+3 < len(ops); i += 4 {
			op, id := ops[i]%5, packet.NodeID(int(ops[i+1])%len(pts))
			power := PowerSim
			if ops[i]&0x80 != 0 {
				power = PowerWeak
			}
			switch op {
			case 0, 4:
				geo.MoveNode(id, topology.Point{X: float64(ops[i+2]) / 4, Y: float64(ops[i+3]) / 4})
			case 1:
				for _, m := range media {
					row, err := m.linkRowFor(power, id)
					if err != nil {
						t.Fatal(err)
					}
					checkFreshRow(t, m, row)
				}
			case 2:
				for _, m := range media {
					if !m.Owns(id) {
						continue
					}
					if _, err := m.Transmit(id, adv(id), power); err != nil {
						continue // mid-frame: nothing new went on the air
					}
					tx := m.active[len(m.active)-1]
					borrowed[tx] = snapshot{slices.Clone(tx.full), slices.Clone(tx.ber), slices.Clone(tx.deliver)}
					checkFreshRow(t, m, m.links[linkKey{power: power, src: id}])
				}
			case 3:
				d := time.Duration(ops[i+2]) * 100 * time.Microsecond
				k.MustSchedule(d, func() {})
				k.Run(k.Now() + d)
			}
			for _, m := range media {
				for _, tx := range m.active {
					s := borrowed[tx]
					if !slices.Equal(tx.full, s.full) || !slices.Equal(tx.ber, s.ber) || !slices.Equal(tx.deliver, s.deliver) {
						t.Fatalf("op %d: frame from %v in the air reads %v / %v / %v, it started with %v / %v / %v",
							i/4, tx.src, tx.full, tx.ber, tx.deliver, s.full, s.ber, s.deliver)
					}
				}
			}
		}
	})
}

// BenchmarkLinkRowRepair is the link-row layer's cost under mobility:
// each iteration nudges one mote of a 30x30 grid and repairs its row.
// ns/op and allocs/op are per repair.
func BenchmarkLinkRowRepair(b *testing.B) {
	layout, err := topology.Grid(30, 30, 10)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		b.Fatal(err)
	}
	geo := m.Geometry()
	home := slices.Clone(layout.Points())
	step := 0
	// nudge moves the next mote 3 ft east of its home, or back on the
	// next pass over the grid, and looks its row up.
	nudge := func() {
		id := packet.NodeID(step % layout.N())
		dx := float64(step / layout.N() % 2 * 3)
		step++
		geo.MoveNode(id, topology.Point{X: home[id].X + dx, Y: home[id].Y})
		if _, err := m.linkRowFor(PowerSim, id); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*layout.N(); i++ { // build, then size, every row
		nudge()
	}
	_, _, before, _ := m.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nudge()
	}
	b.StopTimer()
	if _, _, after, _ := m.CacheStats(); after-before != uint64(b.N) {
		b.Fatalf("%d repairs in %d iterations", after-before, b.N)
	}
}

package radio

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"mnp/internal/packet"
	"mnp/internal/race"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// busyByScan is the carrier sense Busy used to be: walk the frames in
// the air and look the mote up in each audible list. Busy now answers
// from carrierUntil; this is the reference it is compared against.
func busyByScan(m *Medium, id packet.NodeID) bool {
	now := m.kernel.Now()
	for _, t := range m.active {
		if t.end <= now {
			continue
		}
		if t.src == id || t.posOf(id) >= 0 {
			return true
		}
	}
	return false
}

// carrierRig is one kernel under one medium (owner nil) or two shard
// media that exchange ghosts (owner[id] names the medium simulating id).
type carrierRig struct {
	t      *testing.T
	k      *sim.Kernel
	media  []*Medium
	owner  []int
	checks int
	busy   int
}

func (r *carrierRig) mediumOf(id packet.NodeID) *Medium {
	if r.owner == nil {
		return r.media[0]
	}
	return r.media[r.owner[id]]
}

// check compares Busy with the scan for every mote on every medium,
// owned there or not.
func (r *carrierRig) check(when string) {
	r.t.Helper()
	for mi, m := range r.media {
		for i := 0; i < m.n; i++ {
			id := packet.NodeID(i)
			got, want := m.Busy(id), busyByScan(m, id)
			if got != want {
				r.t.Fatalf("%s, t=%v, medium %d: Busy(%v) = %v, the scan says %v", when, r.k.Now(), mi, id, got, want)
			}
			r.checks++
			if got {
				r.busy++
			}
		}
	}
}

// run drives random overlapping transmissions at mixed powers, radio
// toggles, a radio switched off mid-frame and (with two media) ghost
// insertion after a random part of the frame has passed, checking after
// every action and at each frame's exact end instant on either side of
// its finish.
func (r *carrierRig) run(rng *rand.Rand, steps int) {
	powers := []int{PowerWeak, PowerSim, PowerFull}
	n := r.media[0].n
	for step := 0; step < steps; step++ {
		id := packet.NodeID(rng.Intn(n))
		m := r.mediumOf(id)
		switch op := rng.Intn(10); {
		case op < 5:
			pkt := adv(id)
			// Scheduled before Transmit queues the frame's finish, so this
			// check sees the end instant with the frame still in the list.
			r.k.MustSchedule(m.Airtime(len(packet.Encode(pkt))), func() { r.check("at end of frame, before finish") })
			air, err := m.Transmit(id, pkt, powers[rng.Intn(len(powers))])
			if err != nil {
				break // radio off or mid-frame: nothing went on the air
			}
			r.k.MustSchedule(air, func() { r.check("at end of frame, after finish") })
			for _, g := range m.TakeOutbox() {
				g := g
				g.Frame = append([]byte(nil), g.Frame...)
				late := time.Duration(rng.Int63n(int64(air)))
				r.k.MustSchedule(late, func() {
					for _, peer := range r.media {
						if peer != m {
							if err := peer.InsertGhost(g); err != nil {
								r.t.Fatal(err)
							}
						}
					}
					r.check("after a ghost insertion")
				})
			}
		case op < 8:
			m.SetRadio(id, rng.Intn(3) > 0)
		case op == 8 && rng.Intn(4) == 0:
			m.SetRadio(id, false) // possibly mid-frame: the frame stays on the air
		}
		r.check("after an action")
		delta := time.Duration(rng.Intn(12)) * time.Millisecond
		r.k.MustSchedule(delta, func() {})
		r.k.Run(r.k.Now() + delta)
		r.check("after the clock moved")
	}
}

func TestBusyMatchesActiveScan(t *testing.T) {
	layout, err := topology.Grid(6, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sharded := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			k := sim.New(seed)
			geo, err := NewGeometry(layout, DefaultParams(), 7)
			if err != nil {
				t.Fatal(err)
			}
			r := &carrierRig{t: t, k: k}
			if sharded {
				// A checkerboard, so every frame crosses the cut.
				r.owner = make([]int, layout.N())
				owned := make([][]packet.NodeID, 2)
				for i := range r.owner {
					r.owner[i] = (i + i/6) % 2
					owned[r.owner[i]] = append(owned[r.owner[i]], packet.NodeID(i))
				}
				for _, ids := range owned {
					m, err := NewShardMedium(k, geo, ids)
					if err != nil {
						t.Fatal(err)
					}
					r.media = append(r.media, m)
				}
			} else {
				m, err := NewShardMedium(k, geo, nil)
				if err != nil {
					t.Fatal(err)
				}
				r.media = []*Medium{m}
			}
			for i := 0; i < layout.N(); i++ {
				r.mediumOf(packet.NodeID(i)).SetRadio(packet.NodeID(i), true)
			}
			r.run(rand.New(rand.NewSource(seed)), 600)
			k.Run(time.Hour)
			r.check("after the drain")
			if r.busy == 0 || r.busy == r.checks {
				t.Fatalf("sharded=%v seed %d: %d of %d answers were busy; the script exercises one side only",
					sharded, seed, r.busy, r.checks)
			}
		}
	}
}

// frameSuccess must be math.Pow to the last bit whether the answer came
// from the table or not. Far more keys than slots go through it, so
// every slot is overwritten by colliding keys, and two frame sizes
// alternate on every link, as advertisements and data do. A two-mote
// medium has one of the smallest tables the size rule gives, 64 slots.
func TestFrameSuccessIsPow(t *testing.T) {
	layout, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	check := func(ber float64, bits int) {
		t.Helper()
		got, want := m.frameSuccess(ber, bits), math.Pow(1-ber, float64(bits))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("frameSuccess(%g, %d) = %x, math.Pow gives %x", ber, bits, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// The zero entry of an untouched slot must not answer for (0, 0).
	check(0, 0)
	rng := rand.New(rand.NewSource(3))
	bers := []float64{0, 1, 1e-4, 2e-2, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	for len(bers) < 5<<maxSuccessBits {
		bers = append(bers, 2e-2*rng.Float64())
	}
	for pass := 0; pass < 2; pass++ {
		for i, ber := range bers {
			check(ber, 36*8)
			check(ber, 36*8) // a hit
			check(ber, 10*8)
			check(bers[i/2], 36*8) // an older key, evicted or not
		}
	}
	if len(m.success) != 64 {
		t.Fatalf("a 2-mote medium's memo has %d slots, want 64", len(m.success))
	}

	// The table is sized at the first delivery from the motes the
	// medium delivers to: 32 slots a mote, rounded up to a power of
	// two, at most 4 096. A shard counts the motes it owns, not the
	// deployment.
	slots := func(motes int, owned []packet.NodeID) int {
		t.Helper()
		layout, err := topology.Line(motes, 10)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := NewGeometry(layout, DefaultParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewShardMedium(sim.New(1), geo, owned)
		if err != nil {
			t.Fatal(err)
		}
		if m.success != nil {
			t.Fatal("memo allocated before the first delivery")
		}
		m.frameSuccess(1e-3, 36*8)
		if 64-m.successShift != uint(bits.TrailingZeros(uint(len(m.success)))) {
			t.Fatalf("%d slots with shift %d", len(m.success), m.successShift)
		}
		return len(m.success)
	}
	for _, c := range []struct{ motes, slots int }{
		{2, 64}, {16, 512}, {40, 2048}, {64, 2048}, {256, 4096}, {400, 4096},
	} {
		if got := slots(c.motes, nil); got != c.slots {
			t.Errorf("%d motes: %d slots, want %d", c.motes, got, c.slots)
		}
	}
	owned := make([]packet.NodeID, 24)
	for i := range owned {
		owned[i] = packet.NodeID(3 * i)
	}
	if got := slots(400, owned); got != 1024 {
		t.Errorf("shard owning 24 of 400 motes: %d slots, want 1024", got)
	}
}

// deliveryLog records every delivery decision a medium reports.
type deliveryLog []string

func (l *deliveryLog) FrameSent(src packet.NodeID, kind packet.Kind, bytes int) {}
func (l *deliveryLog) FrameReceived(dst, src packet.NodeID, kind packet.Kind, bytes int) {
	*l = append(*l, fmt.Sprintf("rx %v<-%v %v %d", dst, src, kind, bytes))
}
func (l *deliveryLog) FrameCollided(dst, src packet.NodeID, kind packet.Kind) {
	*l = append(*l, fmt.Sprintf("collided %v<-%v %v", dst, src, kind))
}

// The memo's size decides which keys stay resident and nothing else:
// the same transmit script on a 64-mote grid, run with the smallest
// table the size rule gives and with the capped one, delivers the same
// frames and leaves the kernel RNG at the same position.
func TestFrameSuccessSizeInvisible(t *testing.T) {
	layout, err := topology.Grid(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tableBits uint) (deliveryLog, int64) {
		k := sim.New(5)
		m, err := NewMedium(k, layout, DefaultParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		m.success = make([]successEntry, 1<<tableBits)
		m.successShift = 64 - tableBits
		var log deliveryLog
		m.SetSink(&log)
		for i := 0; i < layout.N(); i++ {
			m.SetRadio(packet.NodeID(i), true)
		}
		// Bursts from one sender, as a streaming sender draws them, so
		// both tables hit as well as miss; a data burst carries an
		// advertisement every third frame, so two sizes share each link.
		rng := rand.New(rand.NewSource(11))
		powers := []int{PowerWeak, PowerSim, PowerFull}
		for burst := 0; burst < 300; burst++ {
			src := packet.NodeID(rng.Intn(layout.N()))
			power := powers[rng.Intn(len(powers))]
			data := rng.Intn(2) == 0
			for i := 0; i < 8; i++ {
				var pkt packet.Packet = adv(src)
				if data && i%3 != 2 {
					pkt = &packet.Data{Src: src, ProgramID: 1, SegID: 1, PacketID: uint8(i), Payload: make([]byte, 22)}
				}
				m.Transmit(src, pkt, power) // busy or mid-frame: nothing sent
				delta := time.Duration(10+rng.Intn(30)) * time.Millisecond
				k.MustSchedule(delta, func() {})
				k.Run(k.Now() + delta)
			}
		}
		k.Run(k.Now() + time.Second)
		return log, k.Rand().Int63()
	}
	small, smallNext := run(successTableBits(1))
	large, largeNext := run(maxSuccessBits)
	if len(small) == 0 {
		t.Fatal("the script delivered nothing")
	}
	if !slices.Equal(small, large) {
		t.Fatalf("delivery decisions differ: %d with the smallest table, %d with the largest", len(small), len(large))
	}
	if smallNext != largeNext {
		t.Fatalf("kernel RNG moved to different positions: next draw %d vs %d", smallNext, largeNext)
	}
}

// Every tile's medium holds one nodeState per mote of the deployment;
// carrierUntil must fit in the padding the flags left.
func TestNodeStateSize(t *testing.T) {
	if sz := unsafe.Sizeof(nodeState{}); sz != 48 {
		t.Fatalf("nodeState is %d bytes, want 48", sz)
	}
}

// A memo a released medium handed on answers as a cold one does, bit
// for bit: an entry holds (1-ber)^bits under its exact key, so what the
// earlier medium left in it is what the new one would compute. A
// second Release puts nothing back, and a memo goes only to a medium of
// its own size.
func TestWarmSuccessMemoMatchesCold(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops pooled items at random")
	}
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1) // what Release puts, the next Get takes
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		runtime.GC()
		runtime.GC()
	}()
	medium := func(motes int) *Medium {
		t.Helper()
		layout, err := topology.Line(motes, 10)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMedium(sim.New(1), layout, DefaultParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := rand.New(rand.NewSource(5))
	bers := []float64{0, 1, 1e-4, math.SmallestNonzeroFloat64}
	for len(bers) < 300 {
		bers = append(bers, 2e-2*rng.Float64())
	}
	old := medium(2)
	for _, ber := range bers {
		old.frameSuccess(ber, 36*8)
		old.frameSuccess(ber/2, 10*8)
	}
	table := old.success
	old.Release()
	old.Release()
	if old.success != nil {
		t.Fatal("Release kept the memo")
	}
	warm, cold := medium(2), medium(2)
	for _, ber := range bers {
		for _, bits := range []int{36 * 8, 10 * 8, 0} {
			for _, key := range []float64{ber, ber / 2} {
				w, c := warm.frameSuccess(key, bits), math.Pow(1-key, float64(bits))
				if math.Float64bits(w) != math.Float64bits(c) {
					t.Fatalf("warm memo: frameSuccess(%g, %d) = %x, cold %x", key, bits, math.Float64bits(w), math.Float64bits(c))
				}
			}
		}
	}
	if &warm.success[0] != &table[0] {
		t.Fatal("test premise broken: the new medium did not take the released memo")
	}
	if cold.frameSuccess(0.5, 8); &cold.success[0] == &table[0] {
		t.Fatal("one memo went to two media: the second Release put it back twice")
	}
	warm.Release()
	other := medium(64)
	other.frameSuccess(0.5, 8)
	if len(other.success) != 2048 || &other.success[0] == &table[0] {
		t.Fatal("a 64-slot memo went to a medium that sizes its memo at 2 048 slots")
	}
}

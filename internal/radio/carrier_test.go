package radio

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"mnp/internal/packet"
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
// toggles, mid-frame Destroy and (with two media) ghost insertion after
// a random part of the frame has passed, checking after every action
// and at each frame's exact end instant on either side of its finish.
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
				break // radio off, destroyed or mid-frame: nothing went on the air
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
			m.Destroy(id) // possibly mid-frame: the frame stays on the air
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
// alternate on every link, as advertisements and data do.
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
	for len(bers) < 5<<successBits {
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
	if len(m.success) != 1<<successBits {
		t.Fatalf("memo table has %d slots, want the fixed %d", len(m.success), 1<<successBits)
	}
}

// Every tile's medium holds one nodeState per mote of the deployment;
// carrierUntil must fit in the padding the flags left.
func TestNodeStateSize(t *testing.T) {
	if sz := unsafe.Sizeof(nodeState{}); sz != 48 {
		t.Fatalf("nodeState is %d bytes, want 48", sz)
	}
}

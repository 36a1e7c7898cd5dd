package node

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// eagerRand is the generator New used to build for every mote; the
// lazily seeded one must reproduce its stream bit for bit.
func eagerRand(id int) *rand.Rand {
	return rand.New(rand.NewSource(int64(id)*0x9E3779B9 ^ 0x51F1))
}

var randIDs = []int{0, 1, 7, 399, 999}

// New seeds nothing; the first Rand call does, and the stream is the
// eager generator's.
func TestRandStreamMatchesEagerSeed(t *testing.T) {
	r := newRig(t, 1000, 10)
	for _, id := range randIDs {
		if r.nodes[id].rng != nil {
			t.Fatalf("node %d: generator seeded before the first draw", id)
		}
		want, got := eagerRand(id), r.nodes[id].Rand()
		for i := 0; i < 1000; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("node %d draw %d: got %d, want %d", id, i, g, w)
			}
		}
	}
}

// The MAC's back-off draws can be a mote's first use of its generator;
// they must seed it exactly as Rand does.
func TestFirstBackoffDrawsMatchEagerSeed(t *testing.T) {
	initial, congestion := newRig(t, 1000, 10), newRig(t, 1000, 10)
	slot := DefaultBackoffSlot
	for _, id := range randIDs {
		want := eagerRand(id)
		for i := 0; i < 4; i++ {
			w := time.Duration(1+want.Intn(initialBackoffSlots)) * slot
			if g := initial.nodes[id].initialBackoff(); g != w {
				t.Fatalf("node %d initial back-off %d: got %v, want %v", id, i, g, w)
			}
		}
		want = eagerRand(id)
		for i := 0; i < 4; i++ {
			w := time.Duration(1+want.Intn(congestionSlots)) * slot
			if g := congestion.nodes[id].congestionBackoff(); g != w {
				t.Fatalf("node %d congestion back-off %d: got %v, want %v", id, i, g, w)
			}
		}
	}
}

// A reboot loses the protocol's RAM but continues the mote's random
// stream where it stopped, whether or not the mote had drawn before the
// crash.
func TestRestartContinuesRandStream(t *testing.T) {
	r := newRig(t, 2, 10)
	drawn, undrawn := r.nodes[0], r.nodes[1]
	want := eagerRand(0)
	for i := 0; i < 10; i++ {
		want.Int63()
		drawn.Rand().Int63()
	}
	for _, n := range r.nodes {
		n.Crash()
		if err := n.Restart(&echoProto{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 20; i++ {
		if w, g := want.Int63(), drawn.Rand().Int63(); w != g {
			t.Fatalf("draw %d after restart: got %d, want %d (reseeded?)", i, g, w)
		}
	}
	if w, g := eagerRand(1).Int63(), undrawn.Rand().Int63(); w != g {
		t.Fatalf("first draw after restart: got %d, want %d", g, w)
	}
}

// newLineNetwork builds count echo motes on a line through NewNetwork.
func newLineNetwork(t *testing.T, count int) *Network {
	t.Helper()
	k := sim.New(1)
	l, err := topology.Line(count, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := radio.NewMedium(k, l, cleanRadio(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(l, func(packet.NodeID) (Protocol, Config) {
		return &echoProto{}, Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	return nw
}

// drawsMatch fails unless n's next draws are eagerRand(id)'s first: a
// Read, which stale buffered bytes would show in, then Int63s.
func drawsMatch(t *testing.T, what string, n *Node) {
	t.Helper()
	want := eagerRand(int(n.ID()))
	w, g := make([]byte, 5), make([]byte, 5)
	want.Read(w)
	n.Rand().Read(g)
	if !bytes.Equal(w, g) {
		t.Fatalf("%s, node %d: Read %v, want %v", what, n.ID(), g, w)
	}
	for i := 0; i < 1000; i++ {
		if w, g := want.Int63(), n.Rand().Int63(); w != g {
			t.Fatalf("%s, node %d draw %d: got %d, want %d", what, n.ID(), i, g, w)
		}
	}
}

// Release hands the generators on; a mote that draws afterwards, and a
// mote of a network built afterwards that takes a handed-on generator,
// both draw the eagerly seeded stream from its start. A generator that
// served Read last has buffered bytes the re-seed must drop.
func TestRandAfterReleaseMatchesEagerSeed(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the pool keeps what Release put
	nw := newLineNetwork(t, 1000)
	for _, id := range randIDs {
		n := nw.Node(packet.NodeID(id))
		n.Rand().Int63()
		n.Rand().Read(make([]byte, 3))
		if err := n.Store(1, 0, 4, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	nw.Release()
	for _, id := range randIDs {
		n := nw.Node(packet.NodeID(id))
		if n.rng != nil {
			t.Fatalf("node %d kept its generator through Release", id)
		}
		if n.HasPacket(1, 0) || n.EEPROM().Slots() != 0 {
			t.Fatalf("node %d kept its EEPROM through Release", id)
		}
		drawsMatch(t, "after Release", n)
	}
	// Enough generators go back that the race detector's random drops
	// of pooled items cannot take them all.
	released := map[*rand.Rand]bool{}
	for id := 0; id < 32; id++ {
		released[nw.Node(packet.NodeID(id)).Rand()] = true
	}
	nw.Release()

	next := newLineNetwork(t, 1000)
	reused := 0
	for _, id := range randIDs {
		n := next.Node(packet.NodeID(id))
		if released[n.Rand()] {
			reused++
		}
		drawsMatch(t, "in the next network", n)
	}
	if reused == 0 {
		t.Fatal("no mote of the next network took a released generator")
	}
}

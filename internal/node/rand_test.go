package node

import (
	"math/rand"
	"testing"
	"time"
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

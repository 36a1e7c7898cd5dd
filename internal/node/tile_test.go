package node

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/race"
	"mnp/internal/sim"
)

// A rewound carver hands its chunks out again, in order and zeroed,
// skips one too small for a request, and makes a chunk only once the
// ones it has are used up.
func TestCarverRewindReusesChunks(t *testing.T) {
	var c carver[int]
	a := c.take(10) // a 16-element chunk
	b := c.take(10) // does not fit its rest: a second chunk
	for i := range a {
		a[i], b[i] = 1, 2
	}
	made := len(c.made)
	c.rewind()
	x := c.take(12)
	if &x[0] != &a[0] {
		t.Fatal("the first take after rewind did not reuse the first chunk")
	}
	z := c.take(3)  // the rest of the first chunk
	y := c.take(40) // the second chunk (16) is too small: skipped
	for _, s := range [][]int{x, y, z} {
		for _, v := range s {
			if v != 0 {
				t.Fatal("a rewound chunk handed out a non-zero element")
			}
		}
	}
	if len(c.made) != made+1 || cap(y) != 40 || len(c.made[made]) != 40 {
		t.Fatalf("%d chunks after a take of 40 that none fits, want %d (one of 40)", len(c.made), made+1)
	}
	if c.carved != 55 {
		t.Fatalf("carved %d after rewind and 55 taken", c.carved)
	}
}

// A released network hands its tile on: the next network on a kernel
// takes it, with its timer width forgotten and every chunk its motes
// were handed zeroed. A second Release puts nothing back, so a third
// network cannot share the tile with the second.
func TestReleasedTileComesBackZeroed(t *testing.T) {
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
	k, nw := newNopNetwork(t, 40)
	p := &packet.Query{ProgramID: 1, SegID: 1}
	for _, n := range nw.Nodes {
		for id := TimerID(1); id <= mnpTimers; id++ {
			n.SetTimer(id, time.Duration(id)*time.Hour)
		}
		p.Src = n.ID()
		for range 3 {
			if err := n.Send(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run(time.Minute)
	tl := nw.tiles[0]
	nw.Release()
	nw.Release()
	for _, n := range nw.Nodes {
		if n.timers != nil || n.queue != nil {
			t.Fatalf("mote %v kept its timer table or MAC queue through Release", n.ID())
		}
	}
	_, next := newNopNetwork(t, 40)
	if len(next.tiles) != 1 || next.tiles[0] != tl {
		t.Fatal("the next network did not take the released tile")
	}
	if tl.timerLen != 0 || tl.timers.used != 0 || tl.slots.used != 0 || tl.bufs.used != 0 {
		t.Fatalf("a reused tile starts at timer width %d, having handed out from %d/%d/%d chunks",
			tl.timerLen, tl.timers.used, tl.slots.used, tl.bufs.used)
	}
	for _, ch := range tl.timers.made {
		for _, tm := range ch {
			if tm != (sim.Timer{}) {
				t.Fatal("a reused tile's timer chunk holds a timer of the released run")
			}
		}
	}
	for _, ch := range tl.slots.made {
		for _, q := range ch {
			if q.frame != nil || q.power != 0 {
				t.Fatal("a reused tile's queue chunk holds a frame of the released run")
			}
		}
	}
	for _, ch := range tl.bufs.made {
		for _, b := range ch {
			if b != ([slotBytes]byte{}) {
				t.Fatal("a reused tile's buffer chunk holds bytes of the released run")
			}
		}
	}
	if _, third := newNopNetwork(t, 40); third.tiles[0] == tl {
		t.Fatal("one tile went to two networks: the second Release put it back twice")
	}
}

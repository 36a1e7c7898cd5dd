package engine

import (
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

func TestConservativeWindow(t *testing.T) {
	layout, _ := topology.Grid(2, 2, 10)
	geo, err := radio.NewGeometry(layout, radio.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := ConservativeWindow(geo)
	if w <= 0 {
		t.Fatalf("window %v not positive", w)
	}
	if w != geo.Airtime(packet.FrameOverhead) {
		t.Fatalf("window %v is not the minimum frame airtime", w)
	}
	// Conservative: no encodable frame can finish inside one window.
	if full := geo.Airtime(packet.FrameOverhead + 1); full <= w {
		t.Fatalf("a larger frame (%v) finishes within the window (%v)", full, w)
	}
}

func TestEngineNewValidation(t *testing.T) {
	layout, _ := topology.Grid(2, 2, 10)
	geo, _ := radio.NewGeometry(layout, radio.DefaultParams(), 1)
	k := sim.New(1)
	m, err := radio.NewShardMedium(k, geo, []packet.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ok := &Shard{Kernel: k, Medium: m, Owned: []packet.NodeID{0, 1, 2, 3}}
	if _, err := New(Config{Window: time.Millisecond}, nil); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := New(Config{Window: 0}, []*Shard{ok}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(Config{Window: time.Millisecond}, []*Shard{{Kernel: k}}); err == nil {
		t.Error("shard without medium accepted")
	}
	if _, err := New(Config{Window: time.Millisecond}, []*Shard{ok}); err != nil {
		t.Errorf("valid engine rejected: %v", err)
	}
}

// TestEngineSkipsIdleWindows pins the fast-forward: with events tens of
// seconds apart and a ~3ms window, stepping barrier by barrier would
// take thousands of iterations; the engine must jump straight to the
// windows containing work, fire global events at their quantized
// barriers, and report run-over when every queue drains.
func TestEngineSkipsIdleWindows(t *testing.T) {
	layout, _ := topology.Grid(2, 2, 10)
	geo, _ := radio.NewGeometry(layout, radio.DefaultParams(), 1)
	tiles, _ := TilePartition(layout, Grid{1, 2})
	shards := make([]*Shard, len(tiles))
	for i, tile := range tiles {
		owned := tile.Owned
		k := sim.New(int64(i + 1))
		m, err := radio.NewShardMedium(k, geo, owned)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = &Shard{Kernel: k, Medium: m, Owned: owned}
	}
	e, err := New(Config{Window: ConservativeWindow(geo), Workers: 1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	shards[0].Kernel.MustSchedule(10*time.Second, func() { fired = append(fired, "k0@10s") })
	shards[1].Kernel.MustSchedule(30*time.Second, func() { fired = append(fired, "k1@30s") })
	e.At(20*time.Second, func() { fired = append(fired, "global@20s") })
	if e.RunUntil(func() bool { return false }, time.Hour) {
		t.Fatal("pred never true, RunUntil reported success")
	}
	want := []string{"k0@10s", "global@20s", "k1@30s"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	// Global events quantize to a barrier at or after their nominal
	// time, by less than one window.
	for _, sh := range shards {
		if now := sh.Kernel.Now(); now > time.Hour+e.Window() {
			t.Fatalf("shard clock %v ran past the limit", now)
		}
	}
}

// TestEnginePredStopsAtBarrier verifies RunUntil returns true as soon
// as the predicate holds at a barrier, without running to the limit.
func TestEnginePredStopsAtBarrier(t *testing.T) {
	layout, _ := topology.Grid(2, 2, 10)
	geo, _ := radio.NewGeometry(layout, radio.DefaultParams(), 1)
	tiles, _ := TilePartition(layout, Grid{1, 2})
	shards := make([]*Shard, len(tiles))
	for i, tile := range tiles {
		owned := tile.Owned
		k := sim.New(int64(i + 1))
		m, _ := radio.NewShardMedium(k, geo, owned)
		shards[i] = &Shard{Kernel: k, Medium: m, Owned: owned}
	}
	e, _ := New(Config{Window: ConservativeWindow(geo), Workers: 1}, shards)
	done := false
	shards[1].Kernel.MustSchedule(5*time.Second, func() { done = true })
	if !e.RunUntil(func() bool { return done }, time.Hour) {
		t.Fatal("predicate satisfied but RunUntil reported failure")
	}
	for _, sh := range shards {
		if now := sh.Kernel.Now(); now > 5*time.Second+e.Window() {
			t.Fatalf("engine overshot: shard clock at %v", now)
		}
	}
}

// TestStripGrid pins the axis K strips cut across: the longer one, with
// ties (and a single strip) going to columns.
func TestStripGrid(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, k int
		want          Grid
	}{
		{2, 6, 3, Grid{1, 3}},
		{6, 2, 3, Grid{3, 1}},
		{4, 4, 3, Grid{1, 3}},
		{6, 2, 1, Grid{1, 1}},
	} {
		layout, _ := topology.Grid(tc.rows, tc.cols, 10)
		if got := StripGrid(layout, tc.k); got != tc.want {
			t.Errorf("%dx%d layout, %d strips: grid %s, want %s", tc.rows, tc.cols, tc.k, got, tc.want)
		}
	}
}

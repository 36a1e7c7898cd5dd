package topology

import (
	"reflect"
	"testing"
	"time"
)

func wpCfg() WaypointConfig {
	return WaypointConfig{SpeedMin: 2, SpeedMax: 6, Pause: 5 * time.Second, Seed: 42}
}

// Same seed, same sampling schedule: identical move sequences.
func TestWaypointDeterministic(t *testing.T) {
	l, err := Grid(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]Move {
		w, err := NewWaypoint(l, wpCfg())
		if err != nil {
			t.Fatal(err)
		}
		var out [][]Move
		for now := 10 * time.Second; now <= 5*time.Minute; now += 10 * time.Second {
			out = append(out, append([]Move(nil), w.Moves(now)...))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two waypoint models with the same seed diverged")
	}
	moved := 0
	for _, step := range a {
		moved += len(step)
	}
	if moved == 0 {
		t.Fatal("waypoint model produced no moves over 5 minutes")
	}
}

// Positions stay inside the layout's bounding box for the whole run.
func TestWaypointStaysInField(t *testing.T) {
	l, err := Grid(3, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWaypoint(l, wpCfg())
	if err != nil {
		t.Fatal(err)
	}
	for now := time.Second; now <= 10*time.Minute; now += time.Second {
		for _, mv := range w.Moves(now) {
			if mv.To.X < 0 || mv.To.X > 40 || mv.To.Y < 0 || mv.To.Y > 20 {
				t.Fatalf("node %v left the 40x20 field at %v: %+v", mv.ID, now, mv.To)
			}
		}
	}
}

func TestWaypointConfigValidation(t *testing.T) {
	l, _ := Grid(2, 2, 10)
	bad := []WaypointConfig{
		{SpeedMin: 0, SpeedMax: 1},
		{SpeedMin: 2, SpeedMax: 1},
		{SpeedMin: 1, SpeedMax: 2, Pause: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewWaypoint(l, cfg); err == nil {
			t.Errorf("config %d (%+v): want error, got nil", i, cfg)
		}
	}
	if _, err := NewWaypoint(nil, wpCfg()); err == nil {
		t.Error("nil layout: want error, got nil")
	}
}

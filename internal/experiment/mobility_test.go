package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mnp/internal/engine"
	"mnp/internal/faults"
	"mnp/internal/topology"
)

// waypoint returns a Setup.Mobility factory for a random-waypoint model
// over the layout's own extent. The factory defers seeding to the run,
// so two setups differing only in Seed get independent trajectories.
func waypoint(speedMin, speedMax float64, pause time.Duration) func(*topology.Layout, int64) (topology.Mobility, error) {
	return func(l *topology.Layout, seed int64) (topology.Mobility, error) {
		return topology.NewWaypoint(l, topology.WaypointConfig{
			SpeedMin: speedMin, SpeedMax: speedMax, Pause: pause, Seed: seed,
		})
	}
}

// geometryOf digs out the shared channel geometry of a finished run on
// either path.
func geometryOf(res *Result) interface{ Moves() uint64 } {
	if res.Medium != nil {
		return res.Medium.Geometry()
	}
	return res.Engine.Shards()[0].Medium.Geometry()
}

// TestMobilityValidate covers the mobility-specific Setup validation.
func TestMobilityValidate(t *testing.T) {
	base := Setup{Name: "m", Rows: 4, Cols: 4, Spacing: 10, Shards: 1}
	withModel := base
	withModel.Mobility = waypoint(1, 2, 0)
	cases := []struct {
		name    string
		s       Setup
		mutate  func(*Setup)
		wantErr string
	}{
		{"model-without-step-defaults", withModel, func(s *Setup) {}, ""},
		{"explicit-step", withModel, func(s *Setup) { s.MobilityEvery = 2 * time.Second }, ""},
		{"negative-step", withModel, func(s *Setup) { s.MobilityEvery = -time.Second }, "negative"},
		{"step-without-model", base, func(s *Setup) { s.MobilityEvery = time.Second }, "no mobility model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s.withDefaults()
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	// The default step only applies when a model is set.
	if s := base.withDefaults(); s.MobilityEvery != 0 {
		t.Fatalf("static setup defaulted MobilityEvery to %v", s.MobilityEvery)
	}
	if s := withModel.withDefaults(); s.MobilityEvery != 10*time.Second {
		t.Fatalf("mobile setup defaulted MobilityEvery to %v, want 10s", s.MobilityEvery)
	}
}

// TestMobilityEquivalenceMatrix extends the tiled engine's headline
// determinism property to time-varying topologies: with a waypoint
// model driving position updates through engine barriers, the outcome
// for a fixed (seed, tile grid) must stay byte-identical across worker
// counts. The 1×1 grid routes the same mobile setup down the
// sequential path.
func TestMobilityEquivalenceMatrix(t *testing.T) {
	grids := []engine.Grid{{Rows: 1, Cols: 1}, {Rows: 2, Cols: 2}}
	for _, g := range grids {
		want := ""
		for _, workers := range []int{1, 2, 4} {
			if g.Tiles() == 1 && workers > 1 {
				continue // no scheduling knobs on the sequential path
			}
			s := Setup{
				Name: fmt.Sprintf("mobile-matrix-%s-w%d", g, workers),
				Rows: 6, Cols: 6, ImagePackets: 32, Seed: 42,
				Protocol: ProtocolGossip, Limit: 3 * time.Hour,
				Mobility: waypoint(1, 3, 5*time.Second), MobilityEvery: 2 * time.Second,
				TileRows: g.Rows, TileCols: g.Cols,
				Shards: 4, Workers: workers,
			}
			if g.Tiles() == 1 {
				s.Shards = 1
			}
			dig, res := tiledDigest(t, s)
			if want == "" {
				want = dig
			} else if dig != want {
				t.Fatalf("grid %s workers %d: digest %s, want %s — mobility broke (seed, grid) purity",
					g, workers, dig, want)
			}
			if moves := geometryOf(res).Moves(); moves == 0 {
				t.Fatalf("grid %s: no node ever moved; the matrix is vacuous", g)
			}
		}
	}
}

// TestMobilityStaticIsUnchanged pins the zero-cost property the whole
// tentpole rests on: a Setup without a mobility model compiles to the
// exact simulation it always did — no mobility event on the kernel, no
// move absorbed by the geometry. (The byte-level claim is enforced by
// the root golden tests; this is the fast structural check.)
func TestMobilityStaticIsUnchanged(t *testing.T) {
	res, err := Run(Setup{
		Name: "static", Rows: 3, Cols: 3, ImagePackets: 16, Seed: 42,
		Limit: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if moves := geometryOf(res).Moves(); moves != 0 {
		t.Fatalf("static run absorbed %d moves", moves)
	}
	if _, _, inval, _ := res.Medium.CacheStats(); inval != 0 {
		t.Fatalf("static run invalidated %d link rows", inval)
	}
}

// TestMobilityChurnChaos is the satellite chaos scenario: gossip
// dissemination with every node on a random-waypoint walk while a
// forwarder crash-reboots and every link degrades for a window — churn
// in topology, membership, and channel at once. The run must still
// converge to byte-identical images with the full invariant suite
// (including advertisement-soundness-under-churn) holding, and the
// motion must demonstrably churn the link cache.
func TestMobilityChurnChaos(t *testing.T) {
	res, err := Run(Setup{
		Name: "mobile-churn", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Protocol: ProtocolGossip, Limit: 6 * time.Hour,
		Mobility: waypoint(1, 3, 10*time.Second), MobilityEvery: 2 * time.Second,
		Invariants: gossipInvariants(),
		Faults: &faults.Plan{Events: []faults.Event{
			faults.CrashReboot(10, 40*time.Second, 10*time.Second),
			faults.DegradeLink(faults.Wildcard, faults.Wildcard, false, 60*time.Second, 120*time.Second, 0.3),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	if moves := geometryOf(res).Moves(); moves == 0 {
		t.Fatal("no node ever moved")
	}
	if _, _, inval, _ := res.Medium.CacheStats(); inval == 0 {
		t.Fatal("mobility never invalidated a link row; the cache test is vacuous")
	}
}

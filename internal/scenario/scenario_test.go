package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"mnp/internal/core"
	"mnp/internal/experiment"
	"mnp/internal/radio"
)

const fullDoc = `
# A kitchen-sink scenario exercising every section.
version = 1
name = "full"
faults = "crash:5@20s; eeprom:*:0.01"

[topology]
kind = "grid"
rows = 6
cols = 6
spacing = 12.5

[mobility]
kind = "waypoint"
speed_min = 1.5
speed_max = 4
pause = "20s"
every = "5s"

[protocol]
name = "mnp"

[run]
seed = 7
image_packets = 128
power = "sim"
limit = "6h"
shards = 2
workers = 1
tile_rows = 2
tile_cols = 3

[invariants]
enabled = true

[telemetry]
dir = "out/"
`

func TestParseFullDocument(t *testing.T) {
	sc, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "full" || sc.Version != 1 {
		t.Fatalf("name=%q version=%d", sc.Name, sc.Version)
	}
	if sc.Topology.Kind != "grid" || sc.Topology.Rows != 6 || sc.Topology.Spacing != 12.5 {
		t.Fatalf("topology = %+v", sc.Topology)
	}
	if m := sc.Mobility; m == nil || m.Kind != "waypoint" || m.SpeedMin != 1.5 || m.SpeedMax != 4 ||
		time.Duration(m.Pause) != 20*time.Second || time.Duration(m.Every) != 5*time.Second {
		t.Fatalf("mobility = %+v", sc.Mobility)
	}
	if sc.Protocol.Name != "mnp" {
		t.Fatalf("protocol = %+v", sc.Protocol)
	}
	if int(sc.Run.Power) != radio.PowerSim {
		t.Fatalf("power = %d, want %d", sc.Run.Power, radio.PowerSim)
	}
	if time.Duration(sc.Run.Limit) != 6*time.Hour {
		t.Fatalf("limit = %v", sc.Run.Limit)
	}
	if sc.Run.Seed != 7 || sc.Run.ImagePackets != 128 {
		t.Fatalf("run = %+v", sc.Run)
	}
	if sc.Run.TileRows != 2 || sc.Run.TileCols != 3 {
		t.Fatalf("tile knobs = %+v", sc.Run)
	}
	if sc.Invariants == nil || !sc.Invariants.Enabled {
		t.Fatalf("invariants = %+v", sc.Invariants)
	}
	if sc.Telemetry == nil || sc.Telemetry.Dir != "out/" {
		t.Fatalf("telemetry = %+v", sc.Telemetry)
	}
}

// TestRoundTripStable parses and compiles each fixture, and pins that
// its JSON encoding — the form a campaign plan's fingerprint hashes —
// decodes strictly back to the identical, valid document: the json tags
// are the schema.
func TestRoundTripStable(t *testing.T) {
	docs := map[string]string{
		"full": fullDoc,
		"minimal": `
version = 1
name = "min"
[topology]
kind = "line"
n = 5
`,
		"random-topology": `
version = 1
name = "rand"
[topology]
kind = "random"
n = 20
width = 120
height = 90
radius = 30
[run]
seed = 3
`,
		"mobile-gossip": `
version = 1
name = "mob"
[topology]
kind = "grid"
rows = 4
cols = 4
[mobility]
kind = "waypoint"
speed_min = 2
speed_max = 6
pause = "30s"
every = "2s"
[protocol]
name = "gossip"
`,
		// A [run] section whose only content is the tile grid.
		"tiles-only": `
version = 1
name = "tiles"
[topology]
kind = "grid"
rows = 4
cols = 4
[run]
tile_rows = 2
tile_cols = 2
`,
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			sc, err := Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.Compile(); err != nil {
				t.Fatal(err)
			}
			enc, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			var generic map[string]any
			if err := json.Unmarshal(enc, &generic); err != nil {
				t.Fatal(err)
			}
			again := &Scenario{}
			if err := DecodeStrict(generic, again); err != nil {
				t.Fatalf("decoding the JSON encoding: %v\n%s", err, enc)
			}
			if err := again.Validate(); err != nil {
				t.Fatalf("the JSON encoding does not validate: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(sc, again) {
				t.Fatalf("JSON round trip changed the document:\nfirst:  %+v\nsecond: %+v", sc, again)
			}
		})
	}
}

// TestParseJSON: scenario files are TOML only. A JSON document fails
// at the TOML front end rather than being sniffed by its first byte.
func TestParseJSON(t *testing.T) {
	doc := `{
  "version": 1,
  "name": "json",
  "topology": {"kind": "grid", "rows": 3, "cols": 5}
}`
	if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "TOML: line 1: expected key = value") {
		t.Fatalf("Parse(JSON) = %v, want the TOML syntax error", err)
	}
}

func TestParseRejects(t *testing.T) {
	const grid = "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n"
	const walk = grid + "[mobility]\nkind = \"waypoint\"\nspeed_min = 1\nspeed_max = 2\n"
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bad-version", "version = 2\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", "version 2"},
		{"no-topology", "version = 1\n", "kind is required"},
		{"unknown-key", "version = 1\nbanana = true\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", "banana"},
		{"unknown-protocol", grid + "[protocol]\nname = \"gcp\"\n", "unknown protocol"},
		{"bad-faults", "version = 1\nfaults = \"explode:*\"\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", "unknown fault kind"},
		{"bad-power", grid + "[run]\npower = 99\n", "power level 99"},
		{"negative-spacing", grid + "spacing = -5\n", "grid spacing -5 ft must be positive and finite"},
		{"negative-line-spacing", "version = 1\n[topology]\nkind = \"line\"\nn = 3\nspacing = -1\n", "line spacing -1 ft"},
		{"mobility-no-kind", grid + "[mobility]\nspeed_min = 1\nspeed_max = 2\n", "kind is required"},
		{"mobility-bad-kind", grid + "[mobility]\nkind = \"brownian\"\n", "unknown kind"},
		{"mobility-bad-speeds", grid + "[mobility]\nkind = \"waypoint\"\nspeed_min = 3\nspeed_max = 1\n", "speeds"},
		{"mobility-unknown-key", walk + "velocity = 9\n", "velocity"},
		// Keys of the removed speculative engine mode fail like any typo.
		{"removed-optimistic", grid + "[run]\noptimistic = true\n", "optimistic"},
		{"removed-lookahead", grid + "[run]\nlookahead = 8\n", "lookahead"},
		{"removed-repartition", grid + "[run]\nrepartition = true\n", `unknown field "repartition"`},
		// Per-node tune rules are gone: a protocol is tuned by its
		// fleet-wide options alone.
		{"removed-tune", grid + "[[protocol.tune]]\nnodes = \"*\"\n[protocol.tune.options]\nno_sleep = true\n", `unknown field "tune"`},
		// Keys and kinds no checked-in document set are gone: each fails
		// as an unknown field or an unknown kind.
		{"bad-option", grid + "[protocol]\nname = \"mnp\"\n[protocol.options]\nno_sleep = true\n", `unknown field "options"`},
		{"bad-selector", grid + "[battery]\n[[battery.rules]]\nnodes = \"0-99\"\nlevel = 0.5\n", `unknown field "battery"`},
		{"bad-battery", grid + "[battery]\ndefault = 0.5\n", `unknown field "battery"`},
		{"removed-battery-rule-level", grid + "[[battery.rules]]\nlevel = 0.5\n", `unknown field "battery"`},
		{"bad-base", grid + "[run]\nbase = 1\n", `unknown field "base"`},
		{"removed-seeds", grid + "[run]\nseeds = [1, 2]\n", `unknown field "seeds"`},
		{"removed-topology-seed", grid + "seed = 3\n", `unknown field "seed"`},
		{"removed-attempts", "version = 1\n[topology]\nkind = \"random\"\nn = 5\nwidth = 20\nheight = 20\nradius = 30\nattempts = 9\n", `unknown field "attempts"`},
		{"removed-points", "version = 1\n[topology]\nkind = \"points\"\npoints = [[0, 0], [1, 1]]\n", `unknown field "points"`},
		{"removed-points-kind", "version = 1\n[topology]\nkind = \"points\"\n", `unknown kind "points"`},
		{"removed-topology-file", "version = 1\n[topology]\nkind = \"file\"\nfile = \"pts.json\"\n", `unknown field "file"`},
		{"removed-file-kind", "version = 1\n[topology]\nkind = \"file\"\n", `unknown kind "file"`},
		{"mobility-width", walk + "width = 100\n", `unknown field "width"`},
		{"mobility-height", walk + "height = 80\n", `unknown field "height"`},
		{"mobility-seed", walk + "seed = 11\n", `unknown field "seed"`},
		{"mobility-file", walk + "file = \"walk.json\"\n", `unknown field "file"`},
		{"mobility-trace-no-file", grid + "[mobility]\nkind = \"trace\"\n", `unknown kind "trace"`},
		{"mobility-static-params", grid + "[mobility]\nkind = \"static\"\n", `unknown kind "static"`},
		{"removed-allow-radio-on-in-sleep", grid + "[invariants]\nenabled = true\nallow_radio_on_in_sleep = true\n", `unknown field "allow_radio_on_in_sleep"`},
		{"removed-sender-overlap-budget", grid + "[invariants]\nenabled = true\nsender_overlap_budget = 10\n", `unknown field "sender_overlap_budget"`},
		{"removed-progress", grid + "[telemetry]\nprogress = true\n", `unknown field "progress"`},
		{"toml-syntax", "version = \n", "missing value"},
		{"dup-key", "version = 1\nversion = 1\n", "duplicate key"},
	}
	for _, key := range []string{"bit_rate_bps = 9600", "ber_floor = 0.1", "ber_ceil = 0.1", "asym_sigma = 0.1", "capture_ratio = 2", "range_feet = 3"} {
		name, _, _ := strings.Cut(key, " ")
		cases = append(cases, struct{ name, doc, wantErr string }{
			"removed-radio-" + name, grid + "[radio]\n" + key + "\n", `unknown field "radio"`,
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Parse = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestCompileClosures verifies the mobility section lowers into the
// Setup's model factory and every other section maps onto its Setup
// field.
func TestCompileClosures(t *testing.T) {
	sc, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}

	if setup.Mobility == nil || setup.MobilityEvery != 5*time.Second {
		t.Fatalf("mobility did not compile: every = %v", setup.MobilityEvery)
	}
	layout, err := sc.Topology.Build(setup.Seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := setup.Mobility(layout, setup.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if mv := model.Moves(time.Hour); len(mv) == 0 {
		t.Error("compiled waypoint model moved no node in an hour")
	}

	if setup.Variant != (core.Variant{}) || setup.Radio != nil || setup.Battery != nil || setup.BaseID != 0 {
		t.Errorf("Go-only Setup fields set from a document: %+v", setup)
	}
	if setup.Shards != 2 || setup.Workers != 1 || setup.Seed != 7 {
		t.Errorf("run params = shards %d workers %d seed %d", setup.Shards, setup.Workers, setup.Seed)
	}
	if setup.TileRows != 2 || setup.TileCols != 3 {
		t.Errorf("tile knobs lost in compilation: %+v", setup)
	}
	if setup.Power != radio.PowerSim || setup.Limit != 6*time.Hour || setup.ImagePackets != 128 {
		t.Errorf("power %d limit %v image %d", setup.Power, setup.Limit, setup.ImagePackets)
	}
	if setup.Faults == nil || len(setup.Faults.Events) != 2 {
		t.Errorf("faults = %+v", setup.Faults)
	}
	if !setup.Invariants {
		t.Error("invariants off, want the checker attached")
	}
}

func TestTopologyBuild(t *testing.T) {
	rand := Topology{Kind: "random", N: 12, Width: 80, Height: 80}
	l1, err := rand.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := rand.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	if l1.N() != 12 {
		t.Fatalf("N = %d", l1.N())
	}
	// Same run seed → same placement; different seed → different.
	d1, _ := l1.Distance(0, 1)
	d2, _ := l2.Distance(0, 1)
	if d1 != d2 {
		t.Fatal("random topology is not deterministic in the run seed")
	}
	l3, err := rand.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	if d3, _ := l3.Distance(0, 1); d3 == d1 {
		t.Fatal("distinct run seeds produced identical placements (suspicious)")
	}
}

// TestCompiledGridMatchesHandWritten pins the structural claim behind
// the golden-hash guarantee: a scenario-compiled grid Setup is
// field-for-field what a hand-written one would be, with no hidden
// Layout or option divergence.
func TestCompiledGridMatchesHandWritten(t *testing.T) {
	doc := `
version = 1
name = "chaos-golden"
faults = "reboot:15@30s+10s; eeprom:*:0.02"
[topology]
kind = "grid"
rows = 4
cols = 4
[run]
seed = 42
image_packets = 128
limit = "6h"
[invariants]
enabled = true
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if setup.Layout != nil {
		t.Fatal("grid scenario compiled to an explicit Layout; must stay native rows/cols")
	}
	if setup.Rows != 4 || setup.Cols != 4 || setup.Seed != 42 || setup.ImagePackets != 128 {
		t.Fatalf("setup = %+v", setup)
	}
	if setup.Limit != 6*time.Hour {
		t.Fatalf("limit = %v", setup.Limit)
	}
	if setup.Radio != nil || setup.Variant != (core.Variant{}) || setup.Battery != nil {
		t.Fatal("defaults must compile to nil overrides and the zero variant (golden-hash byte identity)")
	}
	if setup.Shards != 0 {
		t.Fatalf("shards = %d, want 0 (package default)", setup.Shards)
	}
}

// TestCompiledMobileScenarioRuns drives a [mobility] waypoint document
// through Compile into a full simulation: the run must complete with
// byte-identical images while the geometry demonstrably absorbed moves.
func TestCompiledMobileScenarioRuns(t *testing.T) {
	doc := `
version = 1
name = "mobile-e2e"
[topology]
kind = "grid"
rows = 4
cols = 4
[mobility]
kind = "waypoint"
speed_min = 1
speed_max = 3
pause = "10s"
every = "2s"
[protocol]
name = "gossip"
[run]
seed = 42
image_packets = 32
limit = "4h"
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(setup)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if res.Medium.Geometry().Moves() == 0 {
		t.Fatal("compiled mobile scenario never moved a node")
	}
}

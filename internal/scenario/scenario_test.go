package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/packet"
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

[radio]
ber_floor = 0.0002
asym_sigma = 0.25
[radio.range_feet]
20 = 30

[mobility]
kind = "waypoint"
speed_min = 1.5
speed_max = 4
pause = "20s"
every = "5s"

[protocol]
name = "mnp"
[protocol.options]
no_sleep = true
query_update = "false"

[run]
seed = 7
seeds = [7, 11, 13]
image_packets = 128
power = "sim"
limit = "6h"
shards = 2
workers = 1
tile_rows = 2
tile_cols = 3

[battery]
default = 0.9
[[battery.rules]]
nodes = "0,3-4"
level = 0.2

[invariants]
enabled = true
sender_overlap_budget = 10

[telemetry]
dir = "out/"
progress = true
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
	if sc.Radio == nil || *sc.Radio.BERFloor != 0.0002 || sc.Radio.RangeFeet["20"] != 30 {
		t.Fatalf("radio = %+v", sc.Radio)
	}
	if m := sc.Mobility; m == nil || m.Kind != "waypoint" || m.SpeedMin != 1.5 || m.SpeedMax != 4 ||
		time.Duration(m.Pause) != 20*time.Second || time.Duration(m.Every) != 5*time.Second {
		t.Fatalf("mobility = %+v", sc.Mobility)
	}
	if got := sc.Protocol.Options["no_sleep"]; got != true {
		t.Fatalf("no_sleep = %v (%T)", got, got)
	}
	if got := sc.Protocol.Options["query_update"]; got != "false" {
		t.Fatalf("query_update = %v (%T)", got, got)
	}
	if int(sc.Run.Power) != radio.PowerSim {
		t.Fatalf("power = %d, want %d", sc.Run.Power, radio.PowerSim)
	}
	if time.Duration(sc.Run.Limit) != 6*time.Hour {
		t.Fatalf("limit = %v", sc.Run.Limit)
	}
	if !reflect.DeepEqual(sc.SeedList(), []int64{7, 11, 13}) {
		t.Fatalf("seeds = %v", sc.SeedList())
	}
	if sc.Run.TileRows != 2 || sc.Run.TileCols != 3 {
		t.Fatalf("tile knobs = %+v", sc.Run)
	}
	if sc.Battery == nil || len(sc.Battery.Rules) != 1 {
		t.Fatalf("battery = %+v", sc.Battery)
	}
	if sc.Invariants == nil || !sc.Invariants.Enabled || sc.Invariants.SenderOverlapBudget != 10 {
		t.Fatalf("invariants = %+v", sc.Invariants)
	}
	if sc.Telemetry == nil || sc.Telemetry.Dir != "out/" || !sc.Telemetry.Progress {
		t.Fatalf("telemetry = %+v", sc.Telemetry)
	}
}

// TestRoundTripStable parses and compiles each fixture, and pins that
// its JSON encoding — the form a campaign plan's fingerprint hashes —
// parses back to the identical document: the json tags are the schema.
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
		"points": `
version = 1
name = "pts"
[topology]
kind = "points"
points = [[0, 0], [10.5, 0], [0, 21]]
[protocol]
name = "deluge"
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
width = 100
height = 80
every = "2s"
seed = 11
[protocol]
name = "gossip"
`,
		"mobility-static-point": `
version = 1
name = "stat"
[topology]
kind = "grid"
rows = 3
cols = 3
[mobility]
kind = "static"
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
			again, err := Parse(enc)
			if err != nil {
				t.Fatalf("re-parsing the JSON encoding: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(sc, again) {
				t.Fatalf("JSON round trip changed the document:\nfirst:  %+v\nsecond: %+v", sc, again)
			}
		})
	}
}

func TestParseJSON(t *testing.T) {
	doc := `{
  "version": 1,
  "name": "json",
  "topology": {"kind": "grid", "rows": 3, "cols": 5},
  "run": {"seed": 42, "image_packets": 64, "limit": "2h"},
  "protocol": {"name": "xnp"}
}`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if setup.Protocol != experiment.ProtocolXNP || setup.Rows != 3 || setup.Cols != 5 {
		t.Fatalf("setup = %+v", setup)
	}
	if setup.Limit != 2*time.Hour {
		t.Fatalf("limit = %v", setup.Limit)
	}
	// The JSON document and its hand-written TOML twin parse
	// identically.
	twin, err := Parse([]byte(`
version = 1
name = "json"
[topology]
kind = "grid"
rows = 3
cols = 5
[run]
seed = 42
image_packets = 64
limit = "2h"
[protocol]
name = "xnp"
`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, twin) {
		t.Fatalf("JSON and TOML twins differ:\njson: %+v\ntoml: %+v", sc, twin)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bad-version", "version = 2\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", "version 2"},
		{"no-topology", "version = 1\n", "kind is required"},
		{"unknown-key", "version = 1\nbanana = true\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", "banana"},
		{"unknown-protocol", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[protocol]\nname = \"gcp\"\n", "unknown protocol"},
		{"bad-option", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[protocol]\nname = \"mnp\"\n[protocol.options]\nwarp = 9\n", "unknown option"},
		{"bad-faults", "version = 1\nfaults = \"explode:*\"\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", "unknown fault kind"},
		{"bad-selector", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[battery]\n[[battery.rules]]\nnodes = \"0-99\"\nlevel = 0.5\n", "outside the 4-node fleet"},
		{"bad-battery", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[battery]\n[[battery.rules]]\nnodes = \"*\"\nlevel = 1.5\n", "outside [0, 1]"},
		{"bad-power", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\npower = 99\n", "power level 99"},
		{"bad-base", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\nbase = 9\n", "base 9"},
		{"mobility-no-kind", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nspeed_min = 1\nspeed_max = 2\n", "kind is required"},
		{"mobility-bad-kind", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"brownian\"\n", "unknown kind"},
		{"mobility-bad-speeds", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"waypoint\"\nspeed_min = 3\nspeed_max = 1\n", "speeds"},
		{"mobility-trace-no-file", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"trace\"\n", "requires a file"},
		{"mobility-static-params", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"static\"\nspeed_min = 1\n", "no parameters"},
		{"mobility-unknown-key", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"waypoint\"\nspeed_min = 1\nspeed_max = 2\nvelocity = 9\n", "velocity"},
		// Keys of the removed speculative engine mode fail like any typo.
		{"removed-optimistic", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\noptimistic = true\n", "optimistic"},
		{"removed-lookahead", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\nlookahead = 8\n", "lookahead"},
		{"removed-repartition", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\nrepartition = true\n", `unknown field "repartition"`},
		// Per-node tune rules are gone: a protocol is tuned by its
		// fleet-wide options alone.
		{"removed-tune", "version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[[protocol.tune]]\nnodes = \"*\"\n[protocol.tune.options]\nno_sleep = true\n", `unknown field "tune"`},
		{"toml-syntax", "version = \n", "missing value"},
		{"dup-key", "version = 1\nversion = 1\n", "duplicate key"},
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

// TestCompileClosures verifies the declarative battery rules lower into
// a closure with the documented semantics (later rules win, the
// default applies elsewhere) and every other section maps onto its
// Setup field.
func TestCompileClosures(t *testing.T) {
	sc, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}

	if setup.Battery == nil {
		t.Fatal("battery rules did not compile")
	}
	for id, want := range map[packet.NodeID]float64{0: 0.2, 3: 0.2, 4: 0.2, 1: 0.9, 35: 0.9} {
		if got := setup.Battery(id); got != want {
			t.Errorf("battery(%v) = %g, want %g", id, got, want)
		}
	}

	if setup.ProtocolOptions["no_sleep"] != "true" || setup.ProtocolOptions["query_update"] != "false" {
		t.Errorf("protocol options = %v", setup.ProtocolOptions)
	}
	if setup.Shards != 2 || setup.Workers != 1 || setup.Seed != 7 {
		t.Errorf("run params = shards %d workers %d seed %d", setup.Shards, setup.Workers, setup.Seed)
	}
	if setup.TileRows != 2 || setup.TileCols != 3 {
		t.Errorf("tile knobs lost in compilation: %+v", setup)
	}
	if setup.Radio == nil || setup.Radio.TxRangeFeet[radio.PowerSim] != 30 {
		t.Errorf("radio overlay missing: %+v", setup.Radio)
	}
	if setup.Faults == nil || len(setup.Faults.Events) != 2 {
		t.Errorf("faults = %+v", setup.Faults)
	}
	if setup.Invariants == nil || setup.Invariants.SenderOverlapBudget != 10 {
		t.Errorf("invariants = %+v", setup.Invariants)
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
	// An explicit topology seed pins the placement across run seeds.
	pinned := Topology{Kind: "random", N: 12, Width: 80, Height: 80, Seed: 9}
	p1, _ := pinned.Build(5)
	p2, _ := pinned.Build(6)
	pd1, _ := p1.Distance(0, 1)
	pd2, _ := p2.Distance(0, 1)
	if pd1 != pd2 {
		t.Fatal("pinned topology seed did not pin the placement")
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
	if setup.Radio != nil || setup.ProtocolOptions != nil || setup.Battery != nil {
		t.Fatal("defaults must compile to nil overrides (golden-hash byte identity)")
	}
	if setup.Shards != 0 {
		t.Fatalf("shards = %d, want 0 (package default)", setup.Shards)
	}
}

// TestMobilityTrace exercises the trace-playback kind end to end at the
// document layer: the file is read and validated at Validate time and
// again when the compiled factory builds the model.
func TestMobilityTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "walk.json")
	trace := `[[2, 0, 5.5, 0], [4, 3, 0, 9], [2, 1, 1, 1]]`
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`
version = 1
[topology]
kind = "grid"
rows = 2
cols = 2
[mobility]
kind = "trace"
file = %q
every = "1s"
`, path)
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := sc.Mobility.Label(); got != "trace-walk" {
		t.Fatalf("Label() = %q, want trace-walk", got)
	}
	setup, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if setup.Mobility == nil || setup.MobilityEvery != time.Second {
		t.Fatalf("trace mobility did not compile: every = %v", setup.MobilityEvery)
	}
	layout, err := sc.Topology.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := setup.Mobility(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mv := model.Moves(2 * time.Second); len(mv) != 2 {
		t.Fatalf("trace at 2s moved %d nodes, want 2", len(mv))
	}
	if mv := model.Moves(4 * time.Second); len(mv) != 1 || mv[0].ID != 3 {
		t.Fatalf("trace at 4s = %+v, want node 3", mv)
	}
	// A trace addressing a node past the layout must fail validation.
	bad := strings.Replace(doc, "rows = 2", "rows = 1", 1)
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Parse() = %v, want node-out-of-range error", err)
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

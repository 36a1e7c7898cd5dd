// Package scenario is the declarative configuration layer: a
// versioned TOML document that describes one simulated deployment —
// topology, mobility, protocol, fault plan, invariants, telemetry,
// engine settings, seed — and compiles into an experiment.Setup. Where
// experiment.Setup carries a Go closure (Mobility), a Scenario carries a
// serializable section, so every sweep in the evaluation is
// reproducible from a checked-in artifact rather than a hand-wired main
// function. The schema holds only the keys checked-in documents set;
// the rest of experiment.Setup (radio overrides, battery levels, the
// base station, MNP's variant) is reached from Go. internal/campaign
// expands matrices of scenarios into run sets.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/faults"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

// Version is the scenario schema version this package reads.
const Version = 1

// connectAttempts bounds the draws a connected random placement may
// take (topology.ConnectedRandom).
const connectAttempts = 64

// Scenario is one deployment described declaratively. The zero value
// of every optional field means "package default", so a minimal
// document is just a version, a name, and a topology.
type Scenario struct {
	// Version is the schema version; must be 1.
	Version int `json:"version"`
	// Name labels reports and campaign cells.
	Name string `json:"name,omitempty"`
	// Faults is a fault plan in the internal/faults spec grammar
	// (e.g. "crash:5@20s; eeprom:*:0.01"); empty means no faults.
	Faults string `json:"faults,omitempty"`

	Topology Topology  `json:"topology"`
	Mobility *Mobility `json:"mobility,omitempty"`
	Protocol Protocol  `json:"protocol,omitempty"`
	Run      Run       `json:"run,omitempty"`

	Invariants *Invariants `json:"invariants,omitempty"`
	Telemetry  *Telemetry  `json:"telemetry,omitempty"`
}

// Topology places the motes.
type Topology struct {
	// Kind is grid, line, or random.
	Kind string `json:"kind"`
	// Grid/line shape; Spacing is in feet (0 means 10).
	Rows    int     `json:"rows,omitempty"`
	Cols    int     `json:"cols,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
	// Random placement: N motes in a Width×Height field, seeded by the
	// run seed. Radius > 0 demands a connected placement
	// (topology.ConnectedRandom) at that radio radius.
	N      int     `json:"n,omitempty"`
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
	Radius float64 `json:"radius,omitempty"`
}

// Mobility puts the fleet in motion: a random-waypoint walk seeded by
// the run seed updates node positions every Every of simulated time,
// quantized to engine barriers on sharded runs. Omitting the section
// keeps the deployment static and the compiled setup byte-identical to
// earlier releases.
type Mobility struct {
	// Kind is waypoint, the one model.
	Kind string `json:"kind"`
	// Uniform speeds in [SpeedMin, SpeedMax] ft/s and a pause at each
	// destination; nodes roam the layout's bounding box.
	SpeedMin float64  `json:"speed_min,omitempty"`
	SpeedMax float64  `json:"speed_max,omitempty"`
	Pause    Duration `json:"pause,omitempty"`
	// Every is the position-update step (default 10s).
	Every Duration `json:"every,omitempty"`
}

// Protocol selects the dissemination protocol.
type Protocol struct {
	// Name is a protocol of experiment.ProtocolNames, any
	// capitalization: mnp (default), deluge, moap, xnp, rlnc, gossip.
	Name string `json:"name,omitempty"`
}

// Run sets the execution parameters.
type Run struct {
	// Seed drives the run.
	Seed int64 `json:"seed,omitempty"`
	// ImagePackets sizes the disseminated program.
	ImagePackets int `json:"image_packets,omitempty"`
	// Power is a TinyOS level (20) or a symbolic name: weak,
	// indoor-low, indoor-high, sim, outdoor-low, full.
	Power PowerLevel `json:"power,omitempty"`
	// Limit bounds simulated time (e.g. "8h"); default 12h.
	Limit Duration `json:"limit,omitempty"`
	// Shards and Workers configure the lockstep engine.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// TileRows/TileCols select a 2D tile grid for the engine (both or
	// neither). See DESIGN.md §4i.
	TileRows int `json:"tile_rows,omitempty"`
	TileCols int `json:"tile_cols,omitempty"`
}

// Invariants attaches the online protocol-invariant checker.
type Invariants struct {
	Enabled bool `json:"enabled"`
}

// Telemetry directs the runner to stream the run as NDJSON + counters
// into Dir. The scenario layer only carries the directive; opening the
// directory and wiring its recorder is the runner's job.
type Telemetry struct {
	Dir string `json:"dir,omitempty"`
}

// Duration is a time.Duration that (un)marshals as a Go duration
// string ("90s", "8h").
type Duration time.Duration

// UnmarshalJSON accepts "8h"-style strings.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON emits the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// PowerLevel is a TinyOS power level that also accepts symbolic names.
type PowerLevel int

var powerNames = map[string]int{
	"weak":        radio.PowerWeak,
	"indoor-low":  radio.PowerIndoorLow,
	"indoor-high": radio.PowerIndoorHigh,
	"sim":         radio.PowerSim,
	"outdoor-low": radio.PowerOutdoorLow,
	"full":        radio.PowerFull,
}

// UnmarshalJSON accepts a level number or a symbolic name.
func (p *PowerLevel) UnmarshalJSON(b []byte) error {
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		*p = PowerLevel(n)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("power must be a level or a name: %s", b)
	}
	n, ok := powerNames[strings.ToLower(s)]
	if !ok {
		names := make([]string, 0, len(powerNames))
		for k := range powerNames {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown power name %q (have %s)", s, strings.Join(names, ", "))
	}
	*p = PowerLevel(n)
	return nil
}

// MarshalJSON emits the numeric level — the canonical form.
func (p PowerLevel) MarshalJSON() ([]byte, error) {
	return json.Marshal(int(p))
}

// Parse reads a TOML scenario document and validates it.
func Parse(data []byte) (*Scenario, error) {
	generic, err := ParseDocument(data)
	if err != nil {
		return nil, err
	}
	var sc Scenario
	if err := DecodeStrict(generic, &sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ParseDocument exposes the TOML front end to sibling config layers
// (internal/campaign reuses it for plan files): it produces the generic
// nested-map form without interpreting it as a Scenario.
func ParseDocument(data []byte) (map[string]any, error) {
	m, err := parseTOML(string(data))
	if err != nil {
		return nil, fmt.Errorf("scenario: TOML: %w", err)
	}
	return m, nil
}

// DecodeStrict round-trips the generic map through JSON into the typed
// document dst, rejecting unknown fields — a typo in a scenario or plan
// file must be an error, not a silently ignored knob.
func DecodeStrict(generic map[string]any, dst any) error {
	buf, err := json.Marshal(generic)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// Validate checks everything checkable without building: version,
// topology shape, protocol name, mobility, the fault grammar, and the
// power level.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario %s: version %d is not supported (want %d)", s.Name, s.Version, Version)
	}
	if err := s.Topology.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	proto := s.Protocol.Name
	if proto == "" {
		proto = "mnp"
	}
	if _, err := experiment.ParseProtocol(proto); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Mobility.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Faults != "" {
		if _, err := faults.ParseSpec(s.Faults); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Run.ImagePackets < 0 {
		return fmt.Errorf("scenario %s: image_packets %d is negative", s.Name, s.Run.ImagePackets)
	}
	if p := int(s.Run.Power); p != 0 {
		if _, ok := radio.RangeFeet(p); !ok {
			return fmt.Errorf("scenario %s: no radio range configured for power level %d", s.Name, p)
		}
	}
	return nil
}

// validate checks the topology's kind and shape without building it.
func (t *Topology) validate() error {
	switch t.Kind {
	case "grid":
		if t.Rows <= 0 || t.Cols <= 0 {
			return fmt.Errorf("topology: grid %dx%d must be positive", t.Rows, t.Cols)
		}
	case "line", "random":
		if t.N <= 0 {
			return fmt.Errorf("topology: %s needs n > 0", t.Kind)
		}
	case "":
		return fmt.Errorf("topology: kind is required (grid, line, random)")
	default:
		return fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
	if t.Kind != "random" && t.Spacing != 0 && (!(t.Spacing > 0) || math.IsInf(t.Spacing, 0)) {
		return fmt.Errorf("topology: %s spacing %g ft must be positive and finite", t.Kind, t.Spacing)
	}
	return nil
}

// spacing is the grid/line spacing with the 10 ft default applied.
func (t *Topology) spacing() float64 {
	if t.Spacing == 0 {
		return 10
	}
	return t.Spacing
}

// Build constructs the layout. The runSeed seeds random placements, so
// a seed sweep over a random topology explores distinct placements
// deterministically.
func (t *Topology) Build(runSeed int64) (*topology.Layout, error) {
	switch t.Kind {
	case "grid":
		return topology.Grid(t.Rows, t.Cols, t.spacing())
	case "line":
		return topology.Line(t.N, t.spacing())
	case "random":
		if t.Radius > 0 {
			return topology.ConnectedRandom(t.N, t.Width, t.Height, t.Radius, runSeed, connectAttempts)
		}
		return topology.Random(t.N, t.Width, t.Height, runSeed)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
}

// Label names the topology for campaign cell keys without requiring a
// seed (random placements are labeled by shape, not instance). Grids
// and lines with an explicit non-default spacing carry it in the label
// so a density sweep (same shape, different spacing) yields distinct
// cell keys; the default spacing keeps the short historical form.
func (t *Topology) Label() string {
	switch t.Kind {
	case "grid":
		if t.Spacing != 0 && t.Spacing != 10 {
			return fmt.Sprintf("grid-%dx%d-sp%g", t.Rows, t.Cols, t.Spacing)
		}
		return fmt.Sprintf("grid-%dx%d", t.Rows, t.Cols)
	case "line":
		if t.Spacing != 0 && t.Spacing != 10 {
			return fmt.Sprintf("line-%d-sp%g", t.N, t.Spacing)
		}
		return fmt.Sprintf("line-%d", t.N)
	case "random":
		return fmt.Sprintf("random-%d", t.N)
	default:
		return t.Kind
	}
}

// validate checks a mobility section; nil (no section) is the static
// deployment and always valid.
func (m *Mobility) validate() error {
	if m == nil {
		return nil
	}
	if m.Every < 0 {
		return fmt.Errorf("mobility: step %v is negative", time.Duration(m.Every))
	}
	switch m.Kind {
	case "waypoint":
	case "":
		return fmt.Errorf("mobility: kind is required (waypoint)")
	default:
		return fmt.Errorf("mobility: unknown kind %q", m.Kind)
	}
	if m.SpeedMin <= 0 || m.SpeedMax < m.SpeedMin {
		return fmt.Errorf("mobility: speeds [%g, %g] ft/s invalid (need 0 < min <= max)", m.SpeedMin, m.SpeedMax)
	}
	if m.Pause < 0 {
		return fmt.Errorf("mobility: pause %v is negative", time.Duration(m.Pause))
	}
	return nil
}

// build constructs the waypoint model over the final layout.
func (m *Mobility) build(l *topology.Layout, runSeed int64) (topology.Mobility, error) {
	return topology.NewWaypoint(l, topology.WaypointConfig{
		SpeedMin: m.SpeedMin, SpeedMax: m.SpeedMax,
		Pause: time.Duration(m.Pause),
		Seed:  runSeed,
	})
}

// Label names the mobility point for campaign cell keys.
func (m *Mobility) Label() string {
	return fmt.Sprintf("wp%g-%g", m.SpeedMin, m.SpeedMax)
}

// Compile lowers the document into an executable experiment.Setup. The
// mobility section becomes the Setup's closure field; everything else
// maps directly. Telemetry is NOT wired here — opening its directory is
// I/O — so runners handle the Telemetry directive themselves.
func (s *Scenario) Compile() (experiment.Setup, error) {
	if err := s.Validate(); err != nil {
		return experiment.Setup{}, err
	}
	setup := experiment.Setup{
		Name:         s.Name,
		ImagePackets: s.Run.ImagePackets,
		Seed:         s.Run.Seed,
		Power:        int(s.Run.Power),
		Limit:        time.Duration(s.Run.Limit),
		Shards:       s.Run.Shards,
		Workers:      s.Run.Workers,
		TileRows:     s.Run.TileRows,
		TileCols:     s.Run.TileCols,
		Protocol:     experiment.ProtocolKind(s.Protocol.Name),
	}
	if setup.Name == "" {
		setup.Name = "scenario"
	}

	// Topology: grids stay native (rows/cols/spacing) so compiled
	// setups are field-for-field identical to hand-written ones; other
	// kinds become explicit layouts.
	if s.Topology.Kind == "grid" {
		setup.Rows, setup.Cols, setup.Spacing = s.Topology.Rows, s.Topology.Cols, s.Topology.Spacing
	} else {
		layout, err := s.Topology.Build(s.Run.Seed)
		if err != nil {
			return experiment.Setup{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		setup.Layout = layout
	}

	if s.Mobility != nil {
		mob := *s.Mobility // value copy; the closure outlives the document
		setup.Mobility = mob.build
		setup.MobilityEvery = time.Duration(mob.Every)
	}

	if s.Faults != "" {
		plan, err := faults.ParseSpec(s.Faults)
		if err != nil {
			return experiment.Setup{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		setup.Faults = plan
	}

	setup.Invariants = s.Invariants != nil && s.Invariants.Enabled
	return setup, nil
}

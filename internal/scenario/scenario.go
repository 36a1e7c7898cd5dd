// Package scenario is the declarative configuration layer: a
// versioned TOML/JSON document that describes one simulated deployment
// — topology, radio model, protocol name and options, battery rules,
// fault plan, invariants, telemetry, sharding, seeds — and compiles
// into an experiment.Setup. Where experiment.Setup carries Go closures
// (Battery, Mobility), a Scenario carries serializable rules, so every
// sweep in the evaluation is reproducible from a checked-in artifact
// rather than a hand-wired main function. internal/campaign expands
// matrices of scenarios into run sets.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/faults"
	"mnp/internal/invariant"
	"mnp/internal/packet"
	"mnp/internal/protoreg"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

// Version is the scenario schema version this package reads.
const Version = 1

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
	Radio    *Radio    `json:"radio,omitempty"`
	Mobility *Mobility `json:"mobility,omitempty"`
	Protocol Protocol  `json:"protocol,omitempty"`
	Run      Run       `json:"run,omitempty"`
	Battery  *Battery  `json:"battery,omitempty"`

	Invariants *Invariants `json:"invariants,omitempty"`
	Telemetry  *Telemetry  `json:"telemetry,omitempty"`
}

// Topology places the motes.
type Topology struct {
	// Kind is grid, line, random, points, or file.
	Kind string `json:"kind"`
	// Grid/line shape.
	Rows    int     `json:"rows,omitempty"`
	Cols    int     `json:"cols,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
	// Random placement: N motes in a Width×Height field. Radius > 0
	// demands a connected placement (topology.ConnectedRandom) at that
	// radio radius; Attempts bounds the retries (default 64). Seed
	// defaults to the run seed.
	N        int     `json:"n,omitempty"`
	Width    float64 `json:"width,omitempty"`
	Height   float64 `json:"height,omitempty"`
	Radius   float64 `json:"radius,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	// Points lists explicit [x, y] positions (kind = points); File
	// names a JSON file holding the same list (kind = file).
	Points [][]float64 `json:"points,omitempty"`
	File   string      `json:"file,omitempty"`
}

// Radio overrides parts of the default Mica-2 channel model. Pointer
// fields distinguish "unset" from a deliberate zero.
type Radio struct {
	BitRateBps   int      `json:"bit_rate_bps,omitempty"`
	BERFloor     *float64 `json:"ber_floor,omitempty"`
	BERCeil      *float64 `json:"ber_ceil,omitempty"`
	AsymSigma    *float64 `json:"asym_sigma,omitempty"`
	CaptureRatio *float64 `json:"capture_ratio,omitempty"`
	// RangeFeet overrides or extends the power-level → range table;
	// keys are decimal power levels ("20", "255").
	RangeFeet map[string]float64 `json:"range_feet,omitempty"`
}

// Mobility puts the fleet in motion: a seeded model updates node
// positions every Every of simulated time, quantized to engine barriers
// on sharded runs. Omitting the section keeps the deployment static and
// the compiled setup byte-identical to earlier releases.
type Mobility struct {
	// Kind is waypoint (random-waypoint walk), trace (recorded
	// playback from File), or static (an explicit no-motion point for
	// campaign axes).
	Kind string `json:"kind"`
	// Waypoint parameters: uniform speeds in [SpeedMin, SpeedMax] ft/s,
	// a pause at each destination, and the roaming field anchored at
	// the layout's bounding-box origin (zero width/height = the
	// layout's own extent).
	SpeedMin float64  `json:"speed_min,omitempty"`
	SpeedMax float64  `json:"speed_max,omitempty"`
	Pause    Duration `json:"pause,omitempty"`
	Width    float64  `json:"width,omitempty"`
	Height   float64  `json:"height,omitempty"`
	// Every is the position-update step (default 10s).
	Every Duration `json:"every,omitempty"`
	// Seed drives the trajectories; zero defers to the run seed, so a
	// seed sweep explores distinct walks deterministically.
	Seed int64 `json:"seed,omitempty"`
	// File names a JSON trace ([[seconds, id, x, y], ...]) for kind =
	// trace.
	File string `json:"file,omitempty"`
}

// Protocol selects and tunes the dissemination protocol.
type Protocol struct {
	// Name is a protoreg registration, any capitalization: mnp
	// (default), deluge, moap, xnp, rlnc, gossip.
	Name string `json:"name,omitempty"`
	// Options are protocol-specific knobs applied to every node; see
	// each protocol package's register.go for the key set. Values may
	// be strings, numbers, or booleans.
	Options map[string]any `json:"options,omitempty"`
}

// Run sets the execution parameters.
type Run struct {
	// Seed drives the single run; Seeds, when non-empty, is the sweep
	// list (campaigns and -seeds fan-outs iterate it; single runs use
	// Seed or the first entry).
	Seed  int64   `json:"seed,omitempty"`
	Seeds []int64 `json:"seeds,omitempty"`
	// ImagePackets sizes the disseminated program.
	ImagePackets int `json:"image_packets,omitempty"`
	// Power is a TinyOS level (20) or a symbolic name: weak,
	// indoor-low, indoor-high, sim, outdoor-low, full.
	Power PowerLevel `json:"power,omitempty"`
	// Base places the base station.
	Base int `json:"base,omitempty"`
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

// Battery assigns initial battery fractions declaratively — the
// serializable replacement for experiment.Setup.Battery.
type Battery struct {
	// Default is the fleet-wide fraction (1.0 when zero).
	Default float64 `json:"default,omitempty"`
	// Rules override Default on node subsets; later rules win.
	Rules []BatteryRule `json:"rules,omitempty"`
}

// BatteryRule sets the battery level for the nodes a selector matches.
type BatteryRule struct {
	Nodes string  `json:"nodes"`
	Level float64 `json:"level"`
}

// Invariants attaches the online protocol-invariant checker.
type Invariants struct {
	Enabled             bool `json:"enabled"`
	AllowRadioOnInSleep bool `json:"allow_radio_on_in_sleep,omitempty"`
	SenderOverlapBudget int  `json:"sender_overlap_budget,omitempty"`
}

// Telemetry directs the runner to stream the run as NDJSON + counters
// into Dir. The scenario layer only carries the directive; opening the
// directory and wiring its recorder is the runner's job.
type Telemetry struct {
	Dir      string `json:"dir,omitempty"`
	Progress bool   `json:"progress,omitempty"`
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

// Parse reads a scenario document from TOML (default) or JSON (first
// byte '{') and validates it.
func Parse(data []byte) (*Scenario, error) {
	generic, err := parseDocument(data)
	if err != nil {
		return nil, err
	}
	var sc Scenario
	if err := decodeStrict(generic, &sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ParseDocument exposes the TOML/JSON front end to sibling config
// layers (internal/campaign reuses it for plan files): it produces the
// generic nested-map form both formats share, without interpreting it
// as a Scenario.
func ParseDocument(data []byte) (map[string]any, error) {
	return parseDocument(data)
}

// DecodeStrict decodes a generic document into dst, rejecting unknown
// fields — the same typo-hostile decoding Parse applies to scenarios.
func DecodeStrict(generic map[string]any, dst any) error {
	return decodeStrict(generic, dst)
}

// parseDocument produces the generic map either format shares.
func parseDocument(data []byte) (map[string]any, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var m map[string]any
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("scenario: JSON: %w", err)
		}
		return m, nil
	}
	m, err := parseTOML(string(data))
	if err != nil {
		return nil, fmt.Errorf("scenario: TOML: %w", err)
	}
	return m, nil
}

// decodeStrict round-trips the generic map through JSON into the typed
// document, rejecting unknown fields — a typo in a scenario file must
// be an error, not a silently ignored knob.
func decodeStrict(generic map[string]any, dst any) error {
	buf, err := json.Marshal(generic)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// Validate checks everything checkable without building: version,
// topology shape, protocol and option validity, selectors, the fault
// grammar, and power levels.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario %s: version %d is not supported (want %d)", s.Name, s.Version, Version)
	}
	n, err := s.Topology.nodeCount()
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	proto := s.Protocol.Name
	if proto == "" {
		proto = "mnp"
	}
	if _, ok := protoreg.Lookup(proto); !ok {
		return fmt.Errorf("scenario %s: unknown protocol %q (have %s)",
			s.Name, proto, strings.Join(protoreg.Names(), ", "))
	}
	opts, err := optionStrings(s.Protocol.Options)
	if err != nil {
		return fmt.Errorf("scenario %s: protocol options: %w", s.Name, err)
	}
	if err := protoreg.ValidateOptions(proto, opts); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Battery != nil {
		if s.Battery.Default < 0 || s.Battery.Default > 1 {
			return fmt.Errorf("scenario %s: battery default %g outside [0, 1]", s.Name, s.Battery.Default)
		}
		for i, rule := range s.Battery.Rules {
			if _, err := parseNodeSet(rule.Nodes, n); err != nil {
				return fmt.Errorf("scenario %s: battery rule %d: %w", s.Name, i, err)
			}
			if rule.Level < 0 || rule.Level > 1 {
				return fmt.Errorf("scenario %s: battery rule %d level %g outside [0, 1]", s.Name, i, rule.Level)
			}
		}
	}
	if err := s.Mobility.validate(n); err != nil {
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
	if s.Run.Base < 0 || s.Run.Base >= n {
		return fmt.Errorf("scenario %s: base %d outside the %d-node layout", s.Name, s.Run.Base, n)
	}
	if p := int(s.Run.Power); p != 0 {
		if _, err := s.compileRadio().RangeForPower(p); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// RangeForPower reports whether the parameter set knows the power
// level. (Medium.RangeFor needs a built medium; validation only needs
// the table.)
func (p paramsView) RangeForPower(power int) (float64, error) {
	ft, ok := p.TxRangeFeet[power]
	if !ok {
		return 0, fmt.Errorf("no radio range configured for power level %d", power)
	}
	return ft, nil
}

type paramsView struct{ radio.Params }

func (s *Scenario) compileRadio() paramsView {
	rp := radio.DefaultParams()
	if r := s.Radio; r != nil {
		if r.BitRateBps != 0 {
			rp.BitRateBps = r.BitRateBps
		}
		if r.BERFloor != nil {
			rp.BERFloor = *r.BERFloor
		}
		if r.BERCeil != nil {
			rp.BERCeil = *r.BERCeil
		}
		if r.AsymSigma != nil {
			rp.AsymSigma = *r.AsymSigma
		}
		if r.CaptureRatio != nil {
			rp.CaptureRatio = *r.CaptureRatio
		}
		if len(r.RangeFeet) > 0 {
			table := make(map[int]float64, len(rp.TxRangeFeet)+len(r.RangeFeet))
			for k, v := range rp.TxRangeFeet {
				table[k] = v
			}
			for k, v := range r.RangeFeet {
				level, err := strconv.Atoi(k)
				if err != nil {
					continue // Validate rejects this before Compile runs
				}
				table[level] = v
			}
			rp.TxRangeFeet = table
		}
	}
	return paramsView{rp}
}

// nodeCount derives the fleet size without building the layout (file
// topologies read the file).
func (t *Topology) nodeCount() (int, error) {
	switch t.Kind {
	case "grid":
		if t.Rows <= 0 || t.Cols <= 0 {
			return 0, fmt.Errorf("topology: grid %dx%d must be positive", t.Rows, t.Cols)
		}
		return t.Rows * t.Cols, nil
	case "line":
		if t.N <= 0 {
			return 0, fmt.Errorf("topology: line needs n > 0")
		}
		return t.N, nil
	case "random":
		if t.N <= 0 {
			return 0, fmt.Errorf("topology: random needs n > 0")
		}
		return t.N, nil
	case "points":
		if len(t.Points) == 0 {
			return 0, fmt.Errorf("topology: points list is empty")
		}
		return len(t.Points), nil
	case "file":
		pts, err := t.loadPointsFile()
		if err != nil {
			return 0, err
		}
		return len(pts), nil
	case "":
		return 0, fmt.Errorf("topology: kind is required (grid, line, random, points, file)")
	default:
		return 0, fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
}

func (t *Topology) loadPointsFile() ([][]float64, error) {
	if !strings.HasSuffix(t.File, ".json") {
		return nil, fmt.Errorf("topology: points file %q must end in .json", t.File)
	}
	data, err := os.ReadFile(t.File)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	var pts [][]float64
	if err := json.Unmarshal(data, &pts); err != nil {
		return nil, fmt.Errorf("topology: %s: %w", t.File, err)
	}
	return pts, nil
}

// Build constructs the layout. The runSeed parameterizes random
// placements that leave Seed zero, so a seed sweep over a random
// topology explores distinct placements deterministically.
func (t *Topology) Build(runSeed int64) (*topology.Layout, error) {
	switch t.Kind {
	case "grid":
		spacing := t.Spacing
		if spacing == 0 {
			spacing = 10
		}
		return topology.Grid(t.Rows, t.Cols, spacing)
	case "line":
		spacing := t.Spacing
		if spacing == 0 {
			spacing = 10
		}
		return topology.Line(t.N, spacing)
	case "random":
		seed := t.Seed
		if seed == 0 {
			seed = runSeed
		}
		if t.Radius > 0 {
			attempts := t.Attempts
			if attempts == 0 {
				attempts = 64
			}
			return topology.ConnectedRandom(t.N, t.Width, t.Height, t.Radius, seed, attempts)
		}
		return topology.Random(t.N, t.Width, t.Height, seed)
	case "points":
		return pointsLayout("points", t.Points)
	case "file":
		pts, err := t.loadPointsFile()
		if err != nil {
			return nil, err
		}
		return pointsLayout(t.File, pts)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", t.Kind)
	}
}

func pointsLayout(name string, raw [][]float64) (*topology.Layout, error) {
	pts := make([]topology.Point, len(raw))
	for i, xy := range raw {
		if len(xy) != 2 {
			return nil, fmt.Errorf("topology: point %d has %d coordinates, want [x, y]", i, len(xy))
		}
		pts[i] = topology.Point{X: xy[0], Y: xy[1]}
	}
	return topology.FromPoints(name, pts)
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
	case "points":
		return fmt.Sprintf("points-%d", len(t.Points))
	case "file":
		base := t.File
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		return strings.TrimSuffix(base, ".json")
	default:
		return t.Kind
	}
}

// validate checks a mobility section against a fleet of n nodes; nil
// (no section) is the static deployment and always valid.
func (m *Mobility) validate(n int) error {
	if m == nil {
		return nil
	}
	if m.Every < 0 {
		return fmt.Errorf("mobility: step %v is negative", time.Duration(m.Every))
	}
	switch m.Kind {
	case "waypoint":
		if m.File != "" {
			return fmt.Errorf("mobility: file is only for kind trace")
		}
		if m.SpeedMin <= 0 || m.SpeedMax < m.SpeedMin {
			return fmt.Errorf("mobility: speeds [%g, %g] ft/s invalid (need 0 < min <= max)", m.SpeedMin, m.SpeedMax)
		}
		if m.Pause < 0 {
			return fmt.Errorf("mobility: pause %v is negative", time.Duration(m.Pause))
		}
		if m.Width < 0 || m.Height < 0 {
			return fmt.Errorf("mobility: field %gx%g ft invalid", m.Width, m.Height)
		}
	case "trace":
		if m.File == "" {
			return fmt.Errorf("mobility: kind trace requires a file")
		}
		data, err := os.ReadFile(m.File)
		if err != nil {
			return fmt.Errorf("mobility: %w", err)
		}
		if _, err := topology.ParseTrace(data, n); err != nil {
			return fmt.Errorf("mobility: %s: %w", m.File, err)
		}
	case "static":
		if m.SpeedMin != 0 || m.SpeedMax != 0 || m.Pause != 0 || m.Width != 0 || m.Height != 0 || m.File != "" {
			return fmt.Errorf("mobility: kind static takes no parameters")
		}
	case "":
		return fmt.Errorf("mobility: kind is required (waypoint, trace, static)")
	default:
		return fmt.Errorf("mobility: unknown kind %q", m.Kind)
	}
	return nil
}

// build constructs the model over the final layout. Static sections
// return a nil model (the factory is never installed for them).
func (m *Mobility) build(l *topology.Layout, runSeed int64) (topology.Mobility, error) {
	switch m.Kind {
	case "waypoint":
		seed := m.Seed
		if seed == 0 {
			seed = runSeed
		}
		return topology.NewWaypoint(l, topology.WaypointConfig{
			SpeedMin: m.SpeedMin, SpeedMax: m.SpeedMax,
			Pause: time.Duration(m.Pause),
			Width: m.Width, Height: m.Height,
			Seed: seed,
		})
	case "trace":
		data, err := os.ReadFile(m.File)
		if err != nil {
			return nil, fmt.Errorf("mobility: %w", err)
		}
		return topology.ParseTrace(data, l.N())
	default:
		return nil, fmt.Errorf("mobility: unknown kind %q", m.Kind)
	}
}

// Label names the mobility point for campaign cell keys.
func (m *Mobility) Label() string {
	switch m.Kind {
	case "waypoint":
		return fmt.Sprintf("wp%g-%g", m.SpeedMin, m.SpeedMax)
	case "trace":
		base := m.File
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		return "trace-" + strings.TrimSuffix(base, ".json")
	default:
		return m.Kind
	}
}

// Compile lowers the document into an executable experiment.Setup.
// Declarative battery rules and the mobility section become the
// Setup's closure fields; everything else maps directly. Telemetry is NOT wired here —
// opening its directory is I/O — so runners handle the Telemetry
// directive themselves.
func (s *Scenario) Compile() (experiment.Setup, error) {
	if err := s.Validate(); err != nil {
		return experiment.Setup{}, err
	}
	setup := experiment.Setup{
		Name:         s.Name,
		ImagePackets: s.Run.ImagePackets,
		Seed:         s.Run.Seed,
		BaseID:       packet.NodeID(s.Run.Base),
		Power:        int(s.Run.Power),
		Limit:        time.Duration(s.Run.Limit),
		Shards:       s.Run.Shards,
		Workers:      s.Run.Workers,
		TileRows:     s.Run.TileRows,
		TileCols:     s.Run.TileCols,
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

	if s.Radio != nil {
		rp := s.compileRadio().Params
		setup.Radio = &rp
	}

	if m := s.Mobility; m != nil && m.Kind != "static" {
		mob := *m // value copy; the closure outlives the document
		setup.Mobility = mob.build
		setup.MobilityEvery = time.Duration(m.Every)
	}

	setup.Protocol = experiment.ProtocolKind(s.Protocol.Name)
	if len(s.Protocol.Options) > 0 {
		opts, err := optionStrings(s.Protocol.Options)
		if err != nil {
			return experiment.Setup{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		setup.ProtocolOptions = opts
	}

	if s.Battery != nil {
		battery, err := s.compileBattery()
		if err != nil {
			return experiment.Setup{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		setup.Battery = battery
	}

	if s.Faults != "" {
		plan, err := faults.ParseSpec(s.Faults)
		if err != nil {
			return experiment.Setup{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		setup.Faults = plan
	}

	if s.Invariants != nil && s.Invariants.Enabled {
		setup.Invariants = &invariant.Config{
			AllowRadioOnInSleep: s.Invariants.AllowRadioOnInSleep,
			SenderOverlapBudget: s.Invariants.SenderOverlapBudget,
		}
	}
	return setup, nil
}

// compileBattery lowers battery rules into the battery closure.
func (s *Scenario) compileBattery() (func(packet.NodeID) float64, error) {
	n, err := s.Topology.nodeCount()
	if err != nil {
		return nil, err
	}
	def := s.Battery.Default
	if def == 0 {
		def = 1.0
	}
	type compiled struct {
		match func(packet.NodeID) bool
		level float64
	}
	rules := make([]compiled, 0, len(s.Battery.Rules))
	for i, rule := range s.Battery.Rules {
		match, err := parseNodeSet(rule.Nodes, n)
		if err != nil {
			return nil, fmt.Errorf("battery rule %d: %w", i, err)
		}
		rules = append(rules, compiled{match, rule.Level})
	}
	return func(id packet.NodeID) float64 {
		level := def
		for _, r := range rules {
			if r.match(id) {
				level = r.level
			}
		}
		return level
	}, nil
}

// SeedList returns the seeds a sweep over this scenario covers: Seeds
// when set, else the single Seed.
func (s *Scenario) SeedList() []int64 {
	if len(s.Run.Seeds) > 0 {
		return s.Run.Seeds
	}
	return []int64{s.Run.Seed}
}

// optionStrings flattens a decoded option map (whose values may be
// TOML/JSON strings, numbers, or booleans) into the string-keyed form
// the registry consumes.
func optionStrings(m map[string]any) (map[string]string, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		switch t := v.(type) {
		case string:
			out[k] = t
		case bool:
			out[k] = strconv.FormatBool(t)
		case int64:
			out[k] = strconv.FormatInt(t, 10)
		case float64:
			// JSON numbers arrive as float64; render integers plainly.
			if t == float64(int64(t)) {
				out[k] = strconv.FormatInt(int64(t), 10)
			} else {
				out[k] = strconv.FormatFloat(t, 'g', -1, 64)
			}
		default:
			return nil, fmt.Errorf("option %s has unsupported type %T", k, v)
		}
	}
	return out, nil
}

// parseNodeSet compiles a node selector — "*", "7", "3-9", or a comma
// list — into a membership predicate over a fleet of n nodes.
func parseNodeSet(sel string, n int) (func(packet.NodeID) bool, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" {
		return nil, fmt.Errorf("empty node selector")
	}
	if sel == "*" {
		return func(packet.NodeID) bool { return true }, nil
	}
	member := map[packet.NodeID]bool{}
	for _, part := range strings.Split(sel, ",") {
		part = strings.TrimSpace(part)
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return nil, fmt.Errorf("bad node selector %q", part)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				return nil, fmt.Errorf("bad node selector %q", part)
			}
		}
		if a < 0 || b < a || b >= n {
			return nil, fmt.Errorf("node selector %q outside the %d-node fleet", part, n)
		}
		for id := a; id <= b; id++ {
			member[packet.NodeID(id)] = true
		}
	}
	return func(id packet.NodeID) bool { return member[id] }, nil
}

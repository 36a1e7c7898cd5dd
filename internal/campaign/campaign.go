// Package campaign expands a declarative experiment matrix — protocol
// × seed × topology × fault plan over a base scenario — into a run
// set, executes it on a bounded worker pool, checkpoints each finished
// cell to NDJSON so an interrupted campaign resumes without re-running
// completed work, and renders a deterministic aggregated comparison
// report. It is the batch layer above internal/scenario: a scenario
// describes one deployment, a campaign sweeps a grid of them.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"mnp/internal/faults"
	"mnp/internal/protoreg"
	"mnp/internal/scenario"
)

// Version is the campaign plan schema version.
const Version = 1

// Plan is a campaign document: a base scenario plus the axes to sweep.
// Every axis is optional; a missing axis contributes the base
// scenario's own value as its single point, so a plan degenerates
// gracefully down to a single cell.
type Plan struct {
	// Version is the schema version; must be 1.
	Version int `json:"version"`
	// Name labels the report and the checkpoint header.
	Name string `json:"name,omitempty"`
	// Protocols is the protocol axis (protoreg names: mnp, deluge,
	// moap, xnp, rlnc, gossip). Default: the base scenario's protocol.
	Protocols []string `json:"protocols,omitempty"`
	// Seeds is the seed axis. Default: the base scenario's seed list.
	Seeds []int64 `json:"seeds,omitempty"`
	// FaultPlans is the fault axis, in the internal/faults spec
	// grammar; "" is a valid point meaning no faults. Default: the
	// base scenario's fault spec as the single point.
	FaultPlans []string `json:"fault_plans,omitempty"`
	// Topologies is the topology axis. Default: the base scenario's
	// topology.
	Topologies []scenario.Topology `json:"topologies,omitempty"`
	// Mobilities is the mobility axis (use kind = "static" for a
	// no-motion point). Default: the base scenario's mobility section
	// as the single point, with no mobility label in cell keys — so
	// plans without the axis keep their historical keys and resume
	// cleanly from old checkpoints.
	Mobilities []scenario.Mobility `json:"mobilities,omitempty"`
	// ProtocolOptions maps a protocol name to the option set its cells
	// run with, overriding the base scenario's options for that
	// protocol. Protocols without an entry inherit the base options
	// when they match the base protocol, package defaults otherwise.
	ProtocolOptions map[string]map[string]any `json:"protocol_options,omitempty"`
	// Workers bounds campaign parallelism (cells run concurrently, one
	// single-threaded simulation each). 0 picks GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Scenario is the base deployment every cell derives from.
	Scenario scenario.Scenario `json:"scenario"`
}

// Cell is one point of the expanded matrix: a fully derived scenario
// plus the axis coordinates that produced it.
type Cell struct {
	// Key identifies the cell across runs — checkpoint entries are
	// keyed by it, so it is a pure function of the axis coordinates.
	Key      string
	Protocol string
	Seed     int64
	Topology string // scenario topology label, e.g. "grid-4x4"
	Mobility string // mobility label ("" without a mobility axis)
	Faults   string
	Scenario *scenario.Scenario
}

// ParsePlan reads a campaign plan from TOML (default) or JSON (first
// byte '{'), normalizes the axes, and validates everything checkable
// without running: schema version, axis duplicates, protocol names,
// fault grammars, and — via Expand — every derived cell scenario.
func ParsePlan(data []byte) (*Plan, error) {
	generic, err := scenario.ParseDocument(data)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := scenario.DecodeStrict(generic, &p); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	if _, err := p.Expand(); err != nil {
		return nil, err
	}
	return &p, nil
}

// PlanForScenario wraps a single scenario as a degenerate campaign
// sweeping only the given seeds — how mnprun runs a scenario whose
// [run] seeds lists several.
func PlanForScenario(sc scenario.Scenario, seeds []int64, workers int) (*Plan, error) {
	name := sc.Name
	if name == "" {
		name = "scenario-sweep"
	}
	p := &Plan{
		Version:  Version,
		Name:     name,
		Seeds:    seeds,
		Workers:  workers,
		Scenario: sc,
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	if _, err := p.Expand(); err != nil {
		return nil, err
	}
	return p, nil
}

// normalize fills defaulted axes from the base scenario and rejects
// malformed plans.
func (p *Plan) normalize() error {
	if p.Version != Version {
		return fmt.Errorf("campaign %s: version %d is not supported (want %d)", p.Name, p.Version, Version)
	}
	if p.Name == "" {
		p.Name = "campaign"
	}
	// The nested base scenario rides on the plan's version so authors
	// do not repeat it.
	if p.Scenario.Version == 0 {
		p.Scenario.Version = scenario.Version
	}
	if len(p.Protocols) == 0 {
		p.Protocols = []string{p.baseProtocol()}
	}
	seen := map[string]bool{}
	for i, name := range p.Protocols {
		name = strings.ToLower(strings.TrimSpace(name))
		if _, ok := protoreg.Lookup(name); !ok {
			return fmt.Errorf("campaign %s: unknown protocol %q (have %s)",
				p.Name, name, strings.Join(protoreg.Names(), ", "))
		}
		if seen[name] {
			return fmt.Errorf("campaign %s: duplicate protocol %q", p.Name, name)
		}
		seen[name] = true
		p.Protocols[i] = name
	}
	for name := range p.ProtocolOptions {
		if _, ok := protoreg.Lookup(name); !ok {
			return fmt.Errorf("campaign %s: protocol_options for unknown protocol %q", p.Name, name)
		}
	}
	if len(p.Seeds) == 0 {
		p.Seeds = p.Scenario.SeedList()
	}
	seedSeen := map[int64]bool{}
	for _, s := range p.Seeds {
		if seedSeen[s] {
			return fmt.Errorf("campaign %s: duplicate seed %d", p.Name, s)
		}
		seedSeen[s] = true
	}
	if len(p.Topologies) == 0 {
		if p.Scenario.Topology.Kind == "" {
			return fmt.Errorf("campaign %s: no topology axis and no base topology", p.Name)
		}
		p.Topologies = []scenario.Topology{p.Scenario.Topology}
	}
	for i, spec := range p.FaultPlans {
		if spec == "" {
			continue
		}
		if _, err := faults.ParseSpec(spec); err != nil {
			return fmt.Errorf("campaign %s: fault plan %d: %w", p.Name, i, err)
		}
	}
	if p.Workers < 0 {
		return fmt.Errorf("campaign %s: workers %d is negative", p.Name, p.Workers)
	}
	return nil
}

// baseProtocol is the base scenario's effective protocol name.
func (p *Plan) baseProtocol() string {
	if p.Scenario.Protocol.Name == "" {
		return "mnp"
	}
	return strings.ToLower(p.Scenario.Protocol.Name)
}

// Expand materializes the matrix in deterministic order — protocols
// outermost, then topologies, then fault plans, then seeds — deriving
// and validating one scenario per cell. Cell keys must come out
// unique; colliding topology labels (two random placements of the same
// size, say) are reported as an error rather than silently merged.
func (p *Plan) Expand() ([]Cell, error) {
	faultAxis := p.FaultPlans
	if len(faultAxis) == 0 {
		faultAxis = []string{p.Scenario.Faults}
	}
	// The mobility axis defaults to the base scenario's section (possibly
	// none) as its single point, contributing no key segment — existing
	// plans keep their historical cell keys and checkpoints.
	mobAxis := []*scenario.Mobility{p.Scenario.Mobility}
	keyMobility := len(p.Mobilities) > 0
	if keyMobility {
		mobAxis = make([]*scenario.Mobility, len(p.Mobilities))
		for i := range p.Mobilities {
			mobAxis[i] = &p.Mobilities[i]
		}
	}
	cells := make([]Cell, 0, len(p.Protocols)*len(p.Topologies)*len(mobAxis)*len(faultAxis)*len(p.Seeds))
	keys := map[string]bool{}
	for _, proto := range p.Protocols {
		for _, topo := range p.Topologies {
			for _, mob := range mobAxis {
				for fi, faultSpec := range faultAxis {
					for _, seed := range p.Seeds {
						cell, err := p.derive(proto, topo, mob, keyMobility, fi, faultSpec, seed, len(p.FaultPlans) > 1)
						if err != nil {
							return nil, err
						}
						if keys[cell.Key] {
							return nil, fmt.Errorf("campaign %s: duplicate cell key %q (topology and mobility labels must be distinct)", p.Name, cell.Key)
						}
						keys[cell.Key] = true
						cells = append(cells, cell)
					}
				}
			}
		}
	}
	return cells, nil
}

// derive builds one cell's scenario from the base plus its axis
// coordinates.
func (p *Plan) derive(proto string, topo scenario.Topology, mob *scenario.Mobility, keyMobility bool, faultIdx int, faultSpec string, seed int64, keyFaults bool) (Cell, error) {
	sc := p.Scenario // value copy; shared maps/slices are read-only
	sc.Topology = topo
	sc.Mobility = mob
	sc.Run.Seed = seed
	sc.Run.Seeds = nil
	sc.Faults = faultSpec
	sc.Protocol.Name = proto

	// Options: an explicit per-protocol entry wins; otherwise the base
	// options carry over only to the base protocol (MNP knobs make no
	// sense on Deluge cells).
	switch {
	case p.ProtocolOptions[proto] != nil:
		sc.Protocol.Options = p.ProtocolOptions[proto]
	case proto == p.baseProtocol():
		// keep base options
	default:
		sc.Protocol.Options = nil
	}

	parts := []string{proto, fmt.Sprintf("s%d", seed), topo.Label()}
	mobLabel := ""
	if keyMobility {
		mobLabel = mob.Label()
		parts = append(parts, mobLabel)
	}
	if keyFaults {
		parts = append(parts, fmt.Sprintf("f%d", faultIdx))
	}
	key := strings.Join(parts, "_")
	sc.Name = key

	if err := sc.Validate(); err != nil {
		return Cell{}, fmt.Errorf("campaign %s: cell %s: %w", p.Name, key, err)
	}
	return Cell{
		Key:      key,
		Protocol: proto,
		Seed:     seed,
		Topology: topo.Label(),
		Mobility: mobLabel,
		Faults:   faultSpec,
		Scenario: &sc,
	}, nil
}

// Fingerprint hashes the normalized plan; the checkpoint header pins
// it so a resumed campaign cannot silently mix cells from two
// different plans. JSON encoding of the plan is deterministic (struct
// field order plus sorted map keys).
func (p *Plan) Fingerprint() string {
	buf, err := json.Marshal(p)
	if err != nil {
		// Plan came out of a JSON round-trip; marshaling cannot fail.
		panic(fmt.Sprintf("campaign: fingerprinting plan: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Package campaign expands a declarative experiment matrix — protocol
// × topology × mobility × fault plan × seed over a base scenario — into
// a run set, executes it on a bounded worker pool, checkpoints each
// finished cell to NDJSON so an interrupted campaign resumes without
// re-running completed work, and renders a deterministic aggregated
// comparison report. It is the batch layer above internal/scenario: a
// scenario describes one deployment, a campaign sweeps a grid of them.
// A plan is a TOML document with eight keys: version, name, the axes
// protocols, seeds, fault_plans, [[topologies]] and [[mobilities]], and
// the base [scenario].
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"mnp/internal/experiment"
	"mnp/internal/faults"
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
	// Protocols is the protocol axis (experiment.ProtocolNames: mnp,
	// deluge, moap, xnp, rlnc, gossip). Default: the base scenario's protocol.
	Protocols []string `json:"protocols,omitempty"`
	// Seeds is the seed axis. Default: the base scenario's seed.
	Seeds []int64 `json:"seeds,omitempty"`
	// FaultPlans is the fault axis, in the internal/faults spec
	// grammar; "" is a valid point meaning no faults. Default: the
	// base scenario's fault spec as the single point.
	FaultPlans []string `json:"fault_plans,omitempty"`
	// Topologies is the topology axis. Default: the base scenario's
	// topology.
	Topologies []scenario.Topology `json:"topologies,omitempty"`
	// Mobilities is the mobility axis. Default: the base scenario's
	// mobility section (possibly none) as the single point, with no
	// mobility label in cell keys — so plans without the axis keep their
	// historical keys and resume cleanly from old checkpoints.
	Mobilities []scenario.Mobility `json:"mobilities,omitempty"`
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

// ParsePlan reads a TOML campaign plan, normalizes the axes, and
// validates everything checkable without running: schema version, axis
// duplicates, protocol names, fault grammars, and — via Expand — every
// derived cell scenario.
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
		base := p.Scenario.Protocol.Name
		if base == "" {
			base = "mnp"
		}
		p.Protocols = []string{base}
	}
	seen := map[experiment.ProtocolKind]bool{}
	for i, name := range p.Protocols {
		kind, err := experiment.ParseProtocol(name)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", p.Name, err)
		}
		if seen[kind] {
			return fmt.Errorf("campaign %s: duplicate protocol %q", p.Name, kind)
		}
		seen[kind] = true
		p.Protocols[i] = string(kind)
	}
	if len(p.Seeds) == 0 {
		p.Seeds = []int64{p.Scenario.Run.Seed}
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
	return nil
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
	sc := p.Scenario // value copy; shared pointers are read-only
	sc.Topology = topo
	sc.Mobility = mob
	sc.Run.Seed = seed
	sc.Faults = faultSpec
	sc.Protocol.Name = proto

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

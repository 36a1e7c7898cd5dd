// Package mnp is a faithful Go reproduction of "MNP: Multihop Network
// Reprogramming Service for Sensor Networks" (Kulkarni & Wang,
// ICDCS 2005): the MNP code-dissemination protocol itself — greedy
// ReqCtr-based sender selection, segment pipelining, bitmap loss
// recovery, aggressive radio sleeping — together with the substrate it
// was evaluated on (a TOSSIM-style discrete-event mote simulator with
// a Mica-2 radio model and Table-1 energy accounting) and the
// baselines it was compared against (Deluge, MOAP, XNP), plus coded
// (RLNC) and gossip dissemination.
//
// The package is a thin facade: Simulate runs one deployment,
// Experiments/RunExperiment reproduce the paper's tables and figures.
// Example programs live under examples/; the regeneration benchmarks
// (one per table/figure) live in bench_test.go.
package mnp

import (
	"fmt"

	"mnp/internal/experiment"
	"mnp/internal/radio"
)

// Re-exported experiment types: Setup describes a deployment, Result a
// finished run, Spec a paper artifact.
type (
	// Setup configures a simulated deployment (grid size, program
	// size, protocol, power level, seed).
	Setup = experiment.Setup
	// Result is a completed run with its metrics collector.
	Result = experiment.Result
	// Spec reproduces one of the paper's tables or figures: its Run
	// returns a Report, the rendered text plus the plotted series.
	Spec = experiment.Spec
	// ProtocolKind selects the dissemination protocol by its name
	// (case-insensitive; "" means MNP).
	ProtocolKind = experiment.ProtocolKind
)

// Protocols runnable by Simulate: the whole protocol table. A name
// works as well, as mnp.ProtocolKind(name), in any capitalization.
const (
	ProtocolMNP    = experiment.ProtocolMNP
	ProtocolDeluge = experiment.ProtocolDeluge
	ProtocolMOAP   = experiment.ProtocolMOAP
	ProtocolXNP    = experiment.ProtocolXNP
	ProtocolRLNC   = experiment.ProtocolRLNC
	ProtocolGossip = experiment.ProtocolGossip
)

// TinyOS power levels with configured ranges.
const (
	PowerWeak       = radio.PowerWeak
	PowerIndoorLow  = radio.PowerIndoorLow
	PowerIndoorHigh = radio.PowerIndoorHigh
	PowerSim        = radio.PowerSim
	PowerOutdoorLow = radio.PowerOutdoorLow
	PowerFull       = radio.PowerFull
)

// Simulate runs one deployment to completion (or its time limit).
func Simulate(s Setup) (*Result, error) {
	return experiment.Run(s)
}

// Build constructs a deployment without starting it, for callers that
// want to schedule fault injection or extra instrumentation first:
// follow with res.RunToCompletion() — or, on a single tile (the
// default), res.Network.Start() and drive res.Kernel; it is nil when an
// engine runs several tiles.
func Build(s Setup) (*Result, error) {
	return experiment.Build(s)
}

// Experiments lists the paper's tables and figures in order.
func Experiments() []Spec {
	return experiment.AllSpecs()
}

// RunExperiment reproduces one table or figure by ID (T1, F5..F13,
// EDEL, A1..A6) and returns its rendered report.
func RunExperiment(id string, seed int64) (string, error) {
	spec, ok := experiment.ByID(id)
	if !ok {
		return "", fmt.Errorf("mnp: unknown experiment %q", id)
	}
	rep, err := spec.Run(seed)
	return rep.Text, err
}

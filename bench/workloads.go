package main

import (
	_ "embed"
	"fmt"
	"regexp"
	"strings"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/topology"
)

// A workload is one set of inputs the benchmark runs. Exactly one of
// setup and plan is set: setup builds a single simulation, plan renders
// the campaign document that campaign.Runner executes.
type workload struct {
	name string
	// setup derives the deployment from the seed; workers is the
	// engine worker count the harness chose for this host.
	setup func(seed int64, workers int) experiment.Setup
	// plan renders the campaign plan text for the seed.
	plan func(seed int64) []byte
	// windowed runs end at Setup.Limit by design, not at completion,
	// so image verification is replaced by digest equality.
	windowed bool
	// twin, for an engine workload, is the same deployment on the
	// sequential path; the traced pass captures and replays it.
	twin func(seed int64) experiment.Setup
	// telemetry makes the traced pass run the workload once more with a
	// telemetry recorder attached, to price the stream.
	telemetry bool
	// seeds is how many consecutive simulation seeds, starting at the
	// workload seed, one run covers. Completion time and frame count
	// vary with the simulation seed, so a run over several seeds gives
	// steadier numbers than the same seed repeated.
	seeds int
	// buildsPerBlock is K: how many back-to-back builds one setup_s
	// sample times, sized so a block lasts at least 0.25 s on the
	// reference host.
	buildsPerBlock int
}

//go:embed workloads/campaign-slice.toml
var campaignSlice string

var seedsLine = regexp.MustCompile(`(?m)^seeds = .*$`)

// campaignPlan rewrites the plan's seed axis to seed .. seed+7.
func campaignPlan(text string, seed int64) []byte {
	seeds := make([]string, 8)
	for i := range seeds {
		seeds[i] = fmt.Sprint(seed + int64(i))
	}
	return []byte(seedsLine.ReplaceAllString(text, "seeds = ["+strings.Join(seeds, ", ")+"]"))
}

func waypoint(l *topology.Layout, seed int64) (topology.Mobility, error) {
	return topology.NewWaypoint(l, topology.WaypointConfig{
		SpeedMin: 1, SpeedMax: 3, Pause: 10 * time.Second, Seed: seed,
	})
}

// workloads returns the six benchmark workloads. Names are fixed:
// BENCHMARK.json (which records why each is here) and later issues
// refer to them.
func workloads() []workload {
	grid60 := func(seed int64) experiment.Setup {
		return experiment.Setup{Name: "grid60", Rows: 60, Cols: 60, Spacing: 10, ImagePackets: 64, Seed: seed, Shards: 1}
	}
	return []workload{
		{
			name: "fig8-dense",
			setup: func(seed int64, _ int) experiment.Setup {
				return experiment.Setup{Name: "fig8-dense", Rows: 20, Cols: 20, Spacing: 10, ImagePackets: 640, Seed: seed, Shards: 1}
			},
			telemetry:      true,
			seeds:          3,
			buildsPerBlock: 60,
		},
		{
			name: "grid60-tiled",
			setup: func(seed int64, workers int) experiment.Setup {
				s := grid60(seed)
				s.Name, s.TileRows, s.TileCols, s.Shards, s.Workers = "grid60-tiled", 4, 4, 2, workers
				return s
			},
			twin:           grid60,
			seeds:          2,
			buildsPerBlock: 5,
		},
		{
			name: "gossip-mobile",
			setup: func(seed int64, _ int) experiment.Setup {
				return experiment.Setup{
					Name: "gossip-mobile", Rows: 30, Cols: 30, Spacing: 10, ImagePackets: 128,
					Protocol: experiment.ProtocolGossip, Seed: seed, Shards: 1,
					Mobility: waypoint, MobilityEvery: 5 * time.Second,
				}
			},
			seeds:          4,
			buildsPerBlock: 25,
		},
		{
			name: "rlnc-corridor",
			setup: func(seed int64, _ int) experiment.Setup {
				return experiment.Setup{
					Name: "rlnc-corridor", Rows: 2, Cols: 20, Spacing: 15, ImagePackets: 2048,
					Protocol: experiment.ProtocolRLNC, Seed: seed, Shards: 1,
				}
			},
			seeds:          3,
			buildsPerBlock: 400,
		},
		{
			name:           "campaign-slice",
			plan:           func(seed int64) []byte { return campaignPlan(campaignSlice, seed) },
			seeds:          1,
			buildsPerBlock: 400,
		},
		{
			name: "fleet100k",
			setup: func(seed int64, _ int) experiment.Setup {
				return experiment.Setup{
					Name: "fleet100k", Rows: 250, Cols: 400, Spacing: 10, ImagePackets: 48,
					Seed: seed, Shards: 1, Limit: 15 * time.Minute,
				}
			},
			windowed:       true,
			seeds:          1,
			buildsPerBlock: 1,
		},
	}
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mnp/internal/experiment"
)

const miniPlan = `version = 1
name = "campaign-mini"
protocols = ["mnp", "gossip"]
seeds = [1]
fault_plans = ["", "degrade:*->*@0s-6h:0.2"]

[[topologies]]
kind = "grid"
rows = 4
cols = 4
spacing = 10

[scenario]

[scenario.run]
image_packets = 16
limit = "6h"
`

// miniWorkloads is a 4x4-grid, 16-packet miniature of each workload
// kind under the real names, so the whole harness runs in tier-1 time.
// The six real workloads never run under go test.
func miniWorkloads() []workload {
	mini := func(name string, proto experiment.ProtocolKind) experiment.Setup {
		return experiment.Setup{Name: name, Rows: 4, Cols: 4, Spacing: 10, ImagePackets: 16, Protocol: proto, Seed: 0, Shards: 1}
	}
	seeded := func(s experiment.Setup, seed int64) experiment.Setup {
		s.Seed = seed
		return s
	}
	return []workload{
		{name: "fig8-dense", seeds: 2, buildsPerBlock: 2, telemetry: true,
			setup: func(seed int64, _ int) experiment.Setup {
				return seeded(mini("fig8-dense", experiment.ProtocolMNP), seed)
			}},
		{name: "grid60-tiled", seeds: 1, buildsPerBlock: 2,
			setup: func(seed int64, workers int) experiment.Setup {
				s := seeded(mini("grid60-tiled", experiment.ProtocolMNP), seed)
				s.TileRows, s.TileCols, s.Shards, s.Workers = 2, 2, 2, workers
				return s
			},
			twin: func(seed int64) experiment.Setup { return seeded(mini("grid60", experiment.ProtocolMNP), seed) }},
		{name: "gossip-mobile", seeds: 1, buildsPerBlock: 2,
			setup: func(seed int64, _ int) experiment.Setup {
				s := seeded(mini("gossip-mobile", experiment.ProtocolGossip), seed)
				s.Mobility, s.MobilityEvery = waypoint, 5*time.Second
				return s
			}},
		{name: "rlnc-corridor", seeds: 1, buildsPerBlock: 2,
			setup: func(seed int64, _ int) experiment.Setup {
				return seeded(mini("rlnc-corridor", experiment.ProtocolRLNC), seed)
			}},
		{name: "campaign-slice", seeds: 1, buildsPerBlock: 2,
			plan: func(seed int64) []byte { return campaignPlan(miniPlan, seed) }},
		{name: "fleet100k", seeds: 1, buildsPerBlock: 1, windowed: true,
			setup: func(seed int64, _ int) experiment.Setup {
				s := seeded(mini("fleet100k", experiment.ProtocolMNP), seed)
				s.Limit = 20 * time.Second
				return s
			}},
	}
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// The spec and the harness name the same workloads, and the checked-in
// campaign plan is the seed-42 instance of what the harness generates.
func TestSpecMatchesHarness(t *testing.T) {
	sp := testSpec(t)
	if err := sp.checkWorkloads(workloads()); err != nil {
		t.Error(err)
	}
	if err := sp.checkWorkloads(miniWorkloads()); err != nil {
		t.Error(err)
	}
	if got := string(campaignPlan(campaignSlice, 42)); got != campaignSlice {
		t.Error("workloads/campaign-slice.toml is not its own seed-42 instance")
	}
	if got := string(campaignPlan(campaignSlice, 7)); !strings.Contains(got, "seeds = [7, 8, 9, 10, 11, 12, 13, 14]") {
		t.Errorf("seed 7 plan lacks its seed axis:\n%s", got)
	}
}

// TestHarnessMiniature drives the timed pass, the traced pass with its
// replays, the result files and -compare on the miniatures.
func TestHarnessMiniature(t *testing.T) {
	sp := testSpec(t)
	ws := miniWorkloads()
	out := t.TempDir()
	merged := resultFile{Workloads: map[string]workloadResult{}}
	for _, w := range ws {
		o := options{out: out, workload: w.name, seed: 3, seconds: 0.01}
		if code := runWorkload(sp, ws, o, io.Discard); code != 0 {
			t.Fatalf("%s: timed pass exit code %d", w.name, code)
		}
		one, err := readResults(runFile(o, w.name))
		if err != nil {
			t.Fatal(err)
		}
		res := one.Workloads[w.name]
		for _, m := range sp.EndToEnd {
			if s, ok := res.Metrics[m.Name]; !ok || s.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s missing or without its unit", w.name, m.Name)
			}
		}
		for _, name := range []string{"wall_s", "setup_s", "alloc_mb", "allocs", "peak_rss_mb", "sim_completion_s", "sim_coverage", "sim_active_radio_s", "sim_tx_frames"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
			}
		}
		if res.Metrics["ok_share"].Value != 1 || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		merged.Workloads[w.name] = res

		o.trace = true
		if code := runWorkload(sp, ws, o, io.Discard); code != 0 {
			t.Fatalf("%s: traced pass exit code %d", w.name, code)
		}
		if _, err := readResults(runFile(o, w.name)); err != nil {
			t.Error(err)
		}
	}

	// A result compares with itself without a worse row. With the
	// millisecond timings of the miniatures pinned to one sample each, a
	// doubled wall time is worse on every workload.
	var buf bytes.Buffer
	if code := compareResults(sp, &merged, &merged, &buf); code != 0 {
		t.Errorf("comparing a result with itself: exit code %d\n%s", code, buf.String())
	}
	withWall := func(scale float64) *resultFile {
		out := resultFile{Workloads: map[string]workloadResult{}}
		for name, res := range merged.Workloads {
			metrics := map[string]sample{}
			for k, v := range res.Metrics {
				metrics[k] = v
			}
			metrics["wall_s"] = single(scale * res.Metrics["wall_s"].Value)
			res.Metrics = metrics
			out.Workloads[name] = res
		}
		return &out
	}
	buf.Reset()
	if code := compareResults(sp, withWall(1), withWall(2), &buf); code != 1 {
		t.Errorf("comparing against a doubled wall time: exit code %d, want 1\n%s", code, buf.String())
	}
	if n := strings.Count(buf.String(), "worse"); n != len(ws) {
		t.Errorf("%d rows are worse, want one per workload:\n%s", n, buf.String())
	}
}

// TestTracedLayers checks the traced pass layer by layer: every
// per-layer name of the spec is measured by some workload and nothing
// else is, the replays agree with the live runs, and each layer's
// counters are zero where the workload does not use the layer.
func TestTracedLayers(t *testing.T) {
	sp := testSpec(t)
	measured := map[string]bool{}
	for _, w := range miniWorkloads() {
		tr := newTracer(w.name)
		m, err := tracedPass(w, 3, 2, t.TempDir(), tr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for name := range m {
			measured[name] = true
		}
		if m["trace.overhead_ratio"] <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", w.name, m["trace.overhead_ratio"])
		}
		if m["radio.replay_drift"] > 0.01 {
			t.Errorf("%s: radio.replay_drift = %v", w.name, m["radio.replay_drift"])
		}
		for name, only := range map[string]string{
			"topology.moves":  "gossip-mobile",
			"rlnc.decode_ops": "rlnc-corridor",
			"engine.windows":  "grid60-tiled",
			"campaign.cells":  "campaign-slice",
		} {
			if (m[name] > 0) != (w.name == only) {
				t.Errorf("%s: %s = %v; only %s uses that layer", w.name, name, m[name], only)
			}
		}
		if w.plan == nil && (m["sim.events"] <= 0 || m["radio.tx_frames"] <= 0 || m["packet.frames"] != m["radio.tx_frames"]) {
			t.Errorf("%s: sim.events %v radio.tx_frames %v packet.frames %v", w.name, m["sim.events"], m["radio.tx_frames"], m["packet.frames"])
		}
		// Spans nest under the workload's root and self time never
		// exceeds the span.
		if len(tr.open) != 0 || tr.spans[0].Parent != -1 {
			t.Errorf("%s: %d spans left open, root parent %d", w.name, len(tr.open), tr.spans[0].Parent)
		}
		for i := range tr.spans {
			if self := tr.self(i); self < -1e-9 || self > tr.total(i)+1e-9 {
				t.Errorf("%s: span %s self time %v of %v", w.name, tr.spans[i].Name, self, tr.total(i))
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is in the spec but no workload measures it", m.Name)
		}
		delete(measured, m.Name)
	}
	for name := range measured {
		t.Errorf("per-layer metric %s is measured but not in the spec", name)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := specMetric{Name: "wall_s", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "sim_coverage", Better: "higher", Bound: &bound}
	s := func(v float64, samples ...float64) sample {
		if samples == nil {
			samples = []float64{v}
		}
		return sample{Value: v, Samples: [][]float64{samples}}
	}
	for _, tc := range []struct {
		name  string
		m     specMetric
		a, b  sample
		exact bool
		want  string
	}{
		{"within the bound", lower, s(1), s(1.05), false, "same"},
		{"slower than the bound", lower, s(1), s(1.2), false, "worse"},
		{"faster than the bound", lower, s(1), s(0.8), false, "better"},
		{"higher is better", higher, s(1), s(0.8), false, "worse"},
		{"spread hides the change", lower, s(1, 0.9, 1, 1.1), s(1.05, 0.95, 1.05, 1.15), false, "unresolved"},
		{"spread but every run slower", lower, s(1, 0.9, 1, 1.1), s(1.3, 1.2, 1.3, 1.4), false, "worse"},
		{"spread but every run faster", lower, s(1, 0.9, 1, 1.1), s(0.7, 0.6, 0.7, 0.8), false, "better"},
		{"exact and equal", lower, s(911), s(911), true, "same"},
		{"exact and off by a hair", lower, s(911), s(911.001), true, "worse"},
		{"exact, higher is better", higher, s(0.5), s(0.6), true, "better"},
	} {
		if got := verdict(tc.m, tc.a, tc.b, tc.exact); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	for in, want := range map[string]string{
		"-seed 42 -trace":                 "-seed 42 -trace=1",
		"--workload w --trace 0":          "--workload w -trace=0",
		"--trace 1 --seed 7":              "-trace=1 --seed 7",
		"-trace -workload fig8-dense":     "-trace=1 -workload fig8-dense",
		"-compare a.json b.json":          "-compare a.json b.json",
		"--seed 1 --seconds 12 --trace 1": "--seed 1 --seconds 12 -trace=1",
	} {
		if got := strings.Join(normalizeTrace(strings.Fields(in)), " "); got != want {
			t.Errorf("%q: %q, want %q", in, got, want)
		}
	}
}

package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planDoc is a small but full-width campaign: 2 protocols x 2 seeds x
// 2 topologies = 8 cells, tiny images so the whole matrix runs in
// test time. XNP is absent on purpose: it is single-hop, so multihop
// topologies legitimately never reach full coverage under it.
const planDoc = `
version = 1
name = "test-campaign"
protocols = ["mnp", "deluge"]
seeds = [42, 7]
workers = 4

[[topologies]]
kind = "grid"
rows = 3
cols = 3

[[topologies]]
kind = "line"
n = 4

[scenario]
[scenario.run]
image_packets = 16
limit = "4h"
`

func parseTestPlan(t *testing.T, doc string) *Plan {
	t.Helper()
	p, err := ParsePlan([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExpand(t *testing.T) {
	p := parseTestPlan(t, planDoc)
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Deterministic order: protocols outermost, seeds innermost.
	wantKeys := []string{
		"mnp_s42_grid-3x3", "mnp_s7_grid-3x3", "mnp_s42_line-4", "mnp_s7_line-4",
		"deluge_s42_grid-3x3", "deluge_s7_grid-3x3", "deluge_s42_line-4", "deluge_s7_line-4",
	}
	for i, want := range wantKeys {
		if cells[i].Key != want {
			t.Errorf("cell %d key = %q, want %q", i, cells[i].Key, want)
		}
	}
	// Each cell's scenario is self-contained and pinned to its axis point.
	c := cells[5]
	if c.Scenario.Run.Seed != 7 || c.Scenario.Protocol.Name != "deluge" || c.Scenario.Topology.Kind != "grid" {
		t.Errorf("cell %s scenario mismatch: %+v", c.Key, c.Scenario)
	}
	if len(c.Scenario.Run.Seeds) != 0 {
		t.Errorf("cell scenario kept the seed sweep list")
	}
}

func TestExpandAxisDefaults(t *testing.T) {
	// No axes at all: the plan degenerates to the base scenario's
	// single cell.
	p := parseTestPlan(t, `
version = 1
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
seed = 5
`)
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Key != "mnp_s5_grid-2x2" {
		t.Fatalf("degenerate plan expanded to %+v", cells)
	}
}

func TestExpandFaultAxis(t *testing.T) {
	p := parseTestPlan(t, `
version = 1
seeds = [1]
fault_plans = ["", "crash:3@60s"]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
`)
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	if cells[0].Key != "mnp_s1_grid-2x2_f0" || cells[0].Faults != "" {
		t.Errorf("fault cell 0 = %q faults %q", cells[0].Key, cells[0].Faults)
	}
	if cells[1].Key != "mnp_s1_grid-2x2_f1" || cells[1].Faults != "crash:3@60s" {
		t.Errorf("fault cell 1 = %q faults %q", cells[1].Key, cells[1].Faults)
	}
}

func TestPlanRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"bad version", `version = 2
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, "version 2"},
		{"unknown protocol", `version = 1
protocols = ["warp"]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, "unknown protocol"},
		{"duplicate protocol", `version = 1
protocols = ["mnp", "mnp"]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, "duplicate protocol"},
		{"duplicate seed", `version = 1
seeds = [3, 3]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, "duplicate seed"},
		{"no topology", `version = 1
seeds = [1]`, "no base topology"},
		{"bad fault plan", `version = 1
fault_plans = ["warp:9"]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, "fault plan 0"},
		{"unknown plan key", `version = 1
protocls = ["mnp"]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, "protocls"},
		{"bad cell scenario", `version = 1
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[[scenario.battery.rules]]
nodes = "99"
level = 0.5`, "cell mnp_s0_grid-2x2: scenario mnp_s0_grid-2x2: battery rule 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlan([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestProtocolOptionRouting checks which cells inherit the base
// scenario's options and which get per-protocol overrides.
func TestProtocolOptionRouting(t *testing.T) {
	p := parseTestPlan(t, `
version = 1
protocols = ["mnp", "deluge", "xnp"]
seeds = [1]
[protocol_options.deluge]
page_packets = 32
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.protocol.options]
no_sleep = true
`)
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string]Cell{}
	for _, c := range cells {
		byProto[c.Protocol] = c
	}
	if got := byProto["mnp"].Scenario.Protocol.Options["no_sleep"]; got != true {
		t.Errorf("mnp cell lost the base options: %v", byProto["mnp"].Scenario.Protocol.Options)
	}
	// TOML integers ride through the generic-map round trip as float64.
	if got := byProto["deluge"].Scenario.Protocol.Options["page_packets"]; got != float64(32) {
		t.Errorf("deluge cell missing its override: %v", byProto["deluge"].Scenario.Protocol.Options)
	}
	if opts := byProto["xnp"].Scenario.Protocol.Options; opts != nil {
		t.Errorf("xnp cell inherited mnp options: %v", opts)
	}
}

// TestRunCampaignAndResume is the end-to-end contract: a run stopped
// mid-campaign resumes from the checkpoint without re-running finished
// cells, and the final report is byte-identical to an uninterrupted
// run of the same plan.
func TestRunCampaignAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("8-cell campaign in -short mode")
	}
	p := parseTestPlan(t, planDoc)

	// Reference: uninterrupted, no checkpoint dir.
	ref, err := (&Runner{Plan: p}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Executed != 8 || ref.Remaining != 0 || ref.Report == "" {
		t.Fatalf("reference run: %+v", ref)
	}
	for _, r := range ref.Results {
		if r.Err != "" {
			t.Fatalf("cell %s failed: %s", r.Key, r.Err)
		}
		if !r.Completed || r.Covered != r.Nodes {
			t.Errorf("cell %s did not complete: %d/%d", r.Key, r.Covered, r.Nodes)
		}
		if r.Tx == 0 || r.EnergyNAh == 0 {
			t.Errorf("cell %s has empty metrics: %+v", r.Key, r)
		}
	}

	// Interrupted: stop after 3 cells, then resume.
	dir := t.TempDir()
	first, err := (&Runner{Plan: p, Dir: dir, MaxCells: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 3 || first.Remaining != 5 || first.Report != "" {
		t.Fatalf("interrupted run: %+v", first)
	}
	if _, err := os.Stat(filepath.Join(dir, ReportFile)); !os.IsNotExist(err) {
		t.Error("interrupted run wrote a report")
	}
	second, err := (&Runner{Plan: p, Dir: dir}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 3 || second.Executed != 5 || second.Remaining != 0 {
		t.Fatalf("resumed run: resumed=%d executed=%d remaining=%d",
			second.Resumed, second.Executed, second.Remaining)
	}
	if second.Report != ref.Report {
		t.Errorf("resumed report differs from uninterrupted report:\n--- resumed\n%s\n--- reference\n%s",
			second.Report, ref.Report)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, ReportFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != ref.Report {
		t.Error("report.txt differs from the in-memory report")
	}

	// A third run finds everything done and re-renders the same bytes.
	third, err := (&Runner{Plan: p, Dir: dir}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 0 || third.Resumed != 8 {
		t.Fatalf("completed-campaign rerun executed %d cells", third.Executed)
	}
	if third.Report != ref.Report {
		t.Error("re-rendered report differs")
	}
}

// TestReportDeterministicAcrossWorkerCounts runs the same plan at 1
// and 4 workers; the reports must be byte-identical.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated campaigns in -short mode")
	}
	p := parseTestPlan(t, `
version = 1
name = "det"
protocols = ["mnp", "deluge"]
seeds = [42, 7]
[scenario]
[scenario.topology]
kind = "grid"
rows = 3
cols = 3
[scenario.run]
image_packets = 16
limit = "4h"
`)
	var reports []string
	for _, workers := range []int{1, 4} {
		out, err := (&Runner{Plan: p, Workers: workers}).Run()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, out.Report)
	}
	if reports[0] != reports[1] {
		t.Errorf("report depends on worker count:\n--- 1 worker\n%s\n--- 4 workers\n%s", reports[0], reports[1])
	}
}

// TestCheckpointRejectsForeignPlan: resuming with a different plan in
// the same directory must fail loudly, not merge.
func TestCheckpointRejectsForeignPlan(t *testing.T) {
	dir := t.TempDir()
	p := parseTestPlan(t, `
version = 1
seeds = [1]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
image_packets = 4
limit = "2h"
`)
	if _, err := (&Runner{Plan: p, Dir: dir}).Run(); err != nil {
		t.Fatal(err)
	}
	other := parseTestPlan(t, `
version = 1
seeds = [2]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
image_packets = 4
limit = "2h"
`)
	_, err := (&Runner{Plan: other, Dir: dir}).Run()
	if err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestCheckpointToleratesTornTail: a line half-written by a kill is
// dropped; the cell it described simply re-runs.
func TestCheckpointToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	p := parseTestPlan(t, `
version = 1
seeds = [1, 2]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
image_packets = 4
limit = "2h"
`)
	path := filepath.Join(dir, CheckpointFile)
	hdr, _ := json.Marshal(checkpointHeader{Campaign: p.Name, Schema: Version, Fingerprint: p.Fingerprint()})
	good, _ := json.Marshal(CellResult{Key: "mnp_s1_grid-2x2", Protocol: "mnp", Seed: 1,
		Topology: "grid-2x2", Nodes: 4, Covered: 4, Completed: true, TimeMS: 1000, Tx: 10, Rx: 10})
	torn := `{"key":"mnp_s2_grid-2`
	if err := os.WriteFile(path, []byte(string(hdr)+"\n"+string(good)+"\n"+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := (&Runner{Plan: p, Dir: dir}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != 1 || out.Executed != 1 {
		t.Fatalf("torn-tail resume: resumed=%d executed=%d", out.Resumed, out.Executed)
	}
	// The resumed (synthetic) cell keeps its checkpointed numbers.
	for _, r := range out.Results {
		if r.Key == "mnp_s1_grid-2x2" && r.TimeMS != 1000 {
			t.Errorf("checkpointed cell was re-run: %+v", r)
		}
	}
}

// TestCheckpointRejectsStaleRecords: a checkpoint whose header matches
// the plan but whose body holds a record for a cell the plan does not
// expand to (a hand-edited file, or records spliced in from another
// campaign) must fail naming the offending key — not silently re-run
// or carry the foreign result into the report.
func TestCheckpointRejectsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	p := parseTestPlan(t, `
version = 1
seeds = [1, 2]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
image_packets = 4
limit = "2h"
`)
	path := filepath.Join(dir, CheckpointFile)
	hdr, _ := json.Marshal(checkpointHeader{Campaign: p.Name, Schema: Version, Fingerprint: p.Fingerprint()})
	good, _ := json.Marshal(CellResult{Key: "mnp_s1_grid-2x2", Protocol: "mnp", Seed: 1,
		Topology: "grid-2x2", Nodes: 4, Covered: 4, Completed: true, TimeMS: 1000, Tx: 10, Rx: 10})
	foreign, _ := json.Marshal(CellResult{Key: "deluge_s9_grid-5x5", Protocol: "deluge", Seed: 9,
		Topology: "grid-5x5", Nodes: 25, Covered: 25, Completed: true, TimeMS: 2000, Tx: 99, Rx: 99})
	content := string(hdr) + "\n" + string(good) + "\n" + string(foreign) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := (&Runner{Plan: p, Dir: dir}).Run()
	if err == nil || !strings.Contains(err.Error(), "deluge_s9_grid-5x5") {
		t.Fatalf("stale checkpoint record accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error does not explain the failure: %v", err)
	}
}

func TestFingerprintStable(t *testing.T) {
	a := parseTestPlan(t, planDoc)
	b := parseTestPlan(t, planDoc)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same document, different fingerprints")
	}
	c := parseTestPlan(t, strings.Replace(planDoc, "seeds = [42, 7]", "seeds = [42, 8]", 1))
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different plans share a fingerprint")
	}
}

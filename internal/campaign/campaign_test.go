package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mnp/internal/race"
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
[scenario.mobility]
kind = "waypoint"
speed_min = 3
speed_max = 1`, "cell mnp_s0_grid-2x2: scenario mnp_s0_grid-2x2: mobility: speeds"},
		// A cell that could only fail at run time fails here instead.
		{"negative spacing", `version = 1
seeds = [1, 2]
[[topologies]]
kind = "grid"
rows = 2
cols = 2
spacing = -5`, "cell mnp_s1_grid-2x2-sp-5: scenario mnp_s1_grid-2x2-sp-5: topology: grid spacing -5 ft must be positive and finite"},
		// Removed keys and kinds fail like any typo.
		{"removed workers", `version = 1
workers = 4
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, `unknown field "workers"`},
		{"removed static mobility", `version = 1
[[mobilities]]
kind = "static"
[scenario.topology]
kind = "grid"
rows = 2
cols = 2`, `unknown kind "static"`},
		{"removed scenario seeds", `version = 1
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
seeds = [1, 2]`, `unknown field "seeds"`},
		{"json", `{"version": 1, "scenario": {"topology": {"kind": "grid", "rows": 2, "cols": 2}}}`, "expected key = value"},
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

// TestProtocolOptionRouting: a plan carries no protocol options — not
// on its base scenario, not per protocol — so every cell runs its
// protocol's defaults. The strict decoder rejects both tables.
func TestProtocolOptionRouting(t *testing.T) {
	const base = `
version = 1
protocols = ["mnp", "deluge", "xnp"]
seeds = [1]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
`
	cells, err := parseTestPlan(t, base).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want one per protocol", len(cells))
	}
	for _, table := range []string{"[scenario.protocol.options]\nno_sleep = true\n", "[protocol_options.deluge]\npage_packets = 32\n"} {
		_, err := ParsePlan([]byte(base + table))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("plan with %q: error %v, want the strict decoder to reject it", table, err)
		}
	}
}

// TestRunCampaignAndResume is the end-to-end contract: a run stopped
// mid-campaign resumes from the checkpoint without re-running finished
// cells, and the final report is byte-identical to an uninterrupted
// run of the same plan.
func TestRunCampaignAndResume(t *testing.T) {
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

// A failed checkpoint write is an error, not a silently missing cell:
// append reports it, and the pool hands the first one back after
// running every cell.
func TestCheckpointWriteFailure(t *testing.T) {
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
	cw, err := openCheckpoint(filepath.Join(t.TempDir(), CheckpointFile), p, false)
	if err != nil {
		t.Fatal(err)
	}
	cw.f.Close() // the disk goes away under an open writer
	if err := cw.append(CellResult{Key: "mnp_s1_grid-2x2"}); err == nil {
		t.Fatal("append to a closed checkpoint reported no error")
	}
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Runner{Plan: p, Workers: 2}).runPool(cells, cw)
	if err == nil {
		t.Fatal("runPool lost the checkpoint error")
	}
	for i, res := range out {
		if res.Key != cells[i].Key || !res.Completed {
			t.Errorf("cell %s did not run to completion after the failed write: %+v", cells[i].Key, res)
		}
	}
}

// pinCell is one 16-mote MNP line cell of 128 packets at seed 42.
func pinCell(t *testing.T) Cell {
	t.Helper()
	cells, err := parseTestPlan(t, `
version = 1
name = "pin"
seeds = [42]
[scenario]
[scenario.topology]
kind = "line"
n = 16
[scenario.run]
image_packets = 128
limit = "6h"
`).Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

// A cell's motes hand their generators and EEPROM rows to the next
// cell; the next cell's result must not show it.
func TestRunCellRepeats(t *testing.T) {
	c := pinCell(t)
	first, second := RunCell(c), RunCell(c)
	if first != second {
		t.Fatalf("the same cell twice in one process:\n%+v\n%+v", first, second)
	}
	if first.Err != "" || !first.Completed {
		t.Fatalf("pin cell did not complete: %+v", first)
	}
}

// TestCellBytesAfterWarmCell is the budget on what a campaign cell
// allocates once an earlier cell has handed on its motes' generators
// and flash rows: at most 150 KB for the 16-mote, 128-packet MNP line
// cell (55 008 B measured once kernels, memos and node chunks are
// handed on too; 99 328 B before; 251 392 B when every cell built its
// own).
func TestCellBytesAfterWarmCell(t *testing.T) {
	const budget = 150 << 10
	if race.Enabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools
	c := pinCell(t)
	RunCell(c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunCell(c)
	runtime.ReadMemStats(&after)
	if res.Err != "" || !res.Completed {
		t.Fatalf("pin cell did not complete: %+v", res)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B for a warm cell", got)
	if got > budget {
		t.Fatalf("a warm cell allocates %d B, budget %d", got, budget)
	}
}

// TestGridCellBytesAfterWarmCell is the budget on a repeated 8×8,
// 128-packet MNP cell, campaign-slice's grid, once a warm-up cell has
// handed on its kernel, frame-success memo, node chunks, generators and
// flash rows (experiment.Result.Release): at most 1.25× the 221 976 B
// measured (371 736 B when only generators and flash rows were handed
// on).
func TestGridCellBytesAfterWarmCell(t *testing.T) {
	const budget = 277_470 // 1.25 × 221 976
	if race.Enabled {
		t.Skip("the race detector drops pooled items at random")
	}
	// No collection empties the pools, and one P holds them all: a Get
	// does not look in another P's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cells, err := parseTestPlan(t, `
version = 1
name = "grid-pin"
seeds = [42]
[scenario]
[scenario.topology]
kind = "grid"
rows = 8
cols = 8
spacing = 10
[scenario.run]
image_packets = 128
limit = "6h"
`).Expand()
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	RunCell(c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunCell(c)
	runtime.ReadMemStats(&after)
	if res.Err != "" || !res.Completed {
		t.Fatalf("grid cell did not complete: %+v", res)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B for a warm 8x8 cell", got)
	if got > budget {
		t.Fatalf("a warm 8x8 cell allocates %d B, budget %d", got, budget)
	}
}

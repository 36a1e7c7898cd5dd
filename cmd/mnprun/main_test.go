package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mnp/internal/telemetry"
)

// testPlan is the acceptance-bar campaign: 2 protocols x 2 seeds x 2
// topologies = 8 cells.
const testPlan = `
version = 1
name = "e2e"
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

const testScenario = `
version = 1
name = "smoke"
[topology]
kind = "grid"
rows = 3
cols = 3
[run]
seed = 42
image_packets = 16
limit = "4h"
[invariants]
enabled = true
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioMode(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	path := writeFile(t, "scenario.toml", testScenario)
	if err := run([]string{"-quiet", path}); err != nil {
		t.Fatal(err)
	}
	// Campaign flags on a single scenario are a usage error.
	if err := run([]string{path, "-out", t.TempDir()}); err == nil {
		t.Fatal("scenario accepted -out")
	}
}

// TestCampaignDeterministicAndResumable is the CLI acceptance test:
// the full matrix runs via mnprun, the report is byte-identical across
// independent runs at equal worker counts, and a campaign stopped
// mid-flight resumes from its checkpoint without re-running finished
// cells.
func TestCampaignDeterministicAndResumable(t *testing.T) {
	if testing.Short() {
		t.Skip("8-cell campaign in -short mode")
	}
	plan := writeFile(t, "plan.toml", testPlan)

	// Two independent full runs must produce identical report bytes.
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		if err := run([]string{"-quiet", plan, "-out", dir}); err != nil {
			t.Fatal(err)
		}
	}
	reportA, err := os.ReadFile(filepath.Join(dirA, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reportB, err := os.ReadFile(filepath.Join(dirB, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reportA) != string(reportB) {
		t.Errorf("independent runs disagree:\n--- A\n%s\n--- B\n%s", reportA, reportB)
	}
	if !strings.Contains(string(reportA), "8 cells") {
		t.Errorf("report does not cover the 8-cell matrix:\n%s", reportA)
	}

	// Interrupt after 3 cells, then resume in the same directory.
	dirC := t.TempDir()
	if err := run([]string{"-quiet", plan, "-out", dirC, "-max-cells", "3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dirC, "report.txt")); !os.IsNotExist(err) {
		t.Fatal("interrupted campaign wrote a report")
	}
	partial, err := os.ReadFile(filepath.Join(dirC, "cells.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := nonEmptyLines(string(partial)); len(lines) != 4 { // header + 3 cells
		t.Fatalf("partial checkpoint has %d lines, want 4:\n%s", len(lines), partial)
	}

	if err := run([]string{"-quiet", plan, "-out", dirC}); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dirC, "cells.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	// Resume appends: the partial prefix is untouched (its cells were
	// not re-run), and exactly the 5 remaining cells follow.
	if !strings.HasPrefix(string(full), string(partial)) {
		t.Error("resume rewrote already-checkpointed cells")
	}
	if lines := nonEmptyLines(string(full)); len(lines) != 9 { // header + 8 cells
		t.Fatalf("resumed checkpoint has %d lines, want 9", len(lines))
	}
	reportC, err := os.ReadFile(filepath.Join(dirC, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reportC) != string(reportA) {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", reportC, reportA)
	}
}

// seedListPlan sweeps a 3x3 deployment over three seeds: a plan whose
// only axis is seeds, which is how a seed list is written.
const seedListPlan = `
version = 1
name = "seed-list"
seeds = [1, 2, 3]
[scenario.topology]
kind = "grid"
rows = 3
cols = 3
[scenario.run]
image_packets = 16
limit = "4h"
`

// TestSeedListIsCampaign runs a seed list as the campaign it is: one
// cell per seed, checkpointed into -out, and a run stopped by
// -max-cells resumes to the uninterrupted report's bytes.
func TestSeedListIsCampaign(t *testing.T) {
	path := writeFile(t, "seeds.toml", seedListPlan)
	full, part := t.TempDir(), t.TempDir()
	if err := run([]string{"-quiet", path, "-out", full}); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(full, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "3 cells") {
		t.Errorf("report does not cover one cell per seed:\n%s", report)
	}
	if err := run([]string{"-quiet", path, "-out", part, "-max-cells", "1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(part, "report.txt")); !os.IsNotExist(err) {
		t.Fatal("interrupted seed list wrote a report")
	}
	if err := run([]string{"-quiet", path, "-out", part}); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(part, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(report) {
		t.Errorf("resumed report differs:\n--- resumed\n%s\n--- reference\n%s", resumed, report)
	}
}

// TestSeedListRejectsTelemetry: a scenario runs one seed, so a [run]
// seeds list is an unknown key — refused by name before the
// [telemetry] table's directory is created.
func TestSeedListRejectsTelemetry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tel")
	doc := strings.Replace(testScenario, "seed = 42\n", "seeds = [1, 2, 3]\n", 1)
	path := writeFile(t, "seeds.toml", doc+fmt.Sprintf("[telemetry]\ndir = %q\n", dir))
	err := run([]string{"-quiet", path})
	if err == nil || !strings.Contains(err.Error(), `unknown field "seeds"`) {
		t.Fatalf("err = %v, want the strict decoder's error naming seeds", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("refused run created the telemetry directory")
	}
}

// failingPlan's first cell reboots a mote the 3x3 grid does not have,
// so it fails before it runs; its second cell is clean.
const failingPlan = `
version = 1
name = "failing"
seeds = [1]
fault_plans = ["reboot:99@30s+10s", ""]
[scenario.topology]
kind = "grid"
rows = 3
cols = 3
[scenario.run]
image_packets = 16
limit = "1h"
`

// TestStoppedCampaignCountsFailedCells: a campaign stopped by
// -max-cells still counts the failed cells among those it finished,
// and fails the run.
func TestStoppedCampaignCountsFailedCells(t *testing.T) {
	path := writeFile(t, "failing.toml", failingPlan)
	err := run([]string{"-quiet", path, "-out", t.TempDir(), "-max-cells", "1"})
	if err == nil || !strings.Contains(err.Error(), "1 of 1 cells failed") {
		t.Fatalf("err = %v, want the stopped run to report its failed cell", err)
	}
}

// artifactDir returns where a test should write its inspectable
// output: MNP_ARTIFACT_DIR if set (CI uploads that directory when a
// job fails), else a scratch dir.
func artifactDir(t *testing.T) string {
	if d := os.Getenv("MNP_ARTIFACT_DIR"); d != "" {
		sub := filepath.Join(d, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

// telemetryScenario is a 15-node deployment (rows x cols grid, seed 11)
// with the invariant checker attached and its [telemetry] table
// pointing at dir; faults and run hold extra top-level and [run] lines.
func telemetryScenario(dir string, rows, cols, packets int, faults, run string) string {
	return fmt.Sprintf(`version = 1
name = "telemetry"
%s
[topology]
kind = "grid"
rows = %d
cols = %d
[run]
seed = 11
image_packets = %d
limit = "12h"
%s
[invariants]
enabled = true
[telemetry]
dir = %q
`, faults, rows, cols, packets, run, dir)
}

// readStream parses a telemetry directory's NDJSON stream.
func readStream(t *testing.T, dir string) []telemetry.Record {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadAll(f)
	if err != nil {
		t.Fatalf("NDJSON stream does not fully parse: %v", err)
	}
	return recs
}

// TestTelemetryRun runs a 3x5-grid scenario with a [telemetry] table
// and verifies the two files it writes: every NDJSON line parses back
// into a Record (meta first, summary last), and the Prometheus dump
// carries the run's counters.
func TestTelemetryRun(t *testing.T) {
	dir := artifactDir(t)
	path := writeFile(t, "telemetry.toml", telemetryScenario(dir, 3, 5, 64, "", ""))
	if err := run([]string{path}); err != nil {
		t.Fatalf("telemetry run failed: %v", err)
	}
	recs := readStream(t, dir)
	if len(recs) < 100 {
		t.Fatalf("only %d records for a 15-node run", len(recs))
	}
	first, last := recs[0], recs[len(recs)-1]
	if first.Type != telemetry.TypeMeta || first.V != telemetry.SchemaVersion ||
		first.Nodes != 15 || first.Seed != 11 || first.Protocol != "MNP" {
		t.Errorf("meta record = %+v", first)
	}
	if last.Type != telemetry.TypeSummary || last.Counters["mnp_nodes_completed"] != 15 {
		t.Errorf("summary record = %+v", last)
	}
	types := map[string]int{}
	for _, r := range recs {
		types[r.Type]++
	}
	for _, want := range []string{telemetry.TypeEvent, telemetry.TypeRadio, telemetry.TypeStorage} {
		if types[want] == 0 {
			t.Errorf("stream has no %q records (got %v)", want, types)
		}
	}
	if types[telemetry.TypeViolation] != 0 {
		t.Errorf("clean run recorded %d violations", types[telemetry.TypeViolation])
	}

	prom, err := os.ReadFile(filepath.Join(dir, "counters.prom"))
	if err != nil {
		t.Fatal(err)
	}
	dump := string(prom)
	for _, want := range []string{
		"# TYPE mnp_tx_frames_total counter",
		"mnp_nodes 15",
		"mnp_nodes_completed 15",
		`mnp_tx_frames_total{class="data"}`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("Prometheus dump missing %q:\n%s", want, dump)
		}
	}
	// The summary record and the Prometheus dump are two views of the
	// same registry; spot-check they agree.
	if tx := last.Counters["mnp_tx_frames_total"]; tx <= 0 ||
		!strings.Contains(dump, "mnp_tx_frames_total "+strconv.FormatInt(tx, 10)+"\n") {
		t.Errorf("summary tx=%d not found in dump:\n%s", tx, dump)
	}
}

// TestTelemetryWithFaults exercises the combined path: a fault plan
// plus telemetry; the fault events must appear in the stream.
func TestTelemetryWithFaults(t *testing.T) {
	dir := artifactDir(t)
	path := writeFile(t, "faults.toml", telemetryScenario(dir, 3, 5, 64, `faults = "reboot:7@30s+10s"`, ""))
	if err := run([]string{path}); err != nil {
		t.Fatalf("faulted telemetry run failed: %v", err)
	}
	for _, r := range readStream(t, dir) {
		if r.Type == telemetry.TypeFault && r.Kind == "reboot" {
			return
		}
	}
	t.Error("stream carries no reboot fault record")
}

// TestShardedScenarioTelemetry runs a faulted scenario on four strips:
// the run must reach the lockstep engine, whose window count lands in
// the counters dump.
func TestShardedScenarioTelemetry(t *testing.T) {
	dir := artifactDir(t)
	path := writeFile(t, "sharded.toml", telemetryScenario(dir, 4, 4, 32, `faults = "reboot:7@30s+10s"`, "shards = 4"))
	if err := run([]string{path}); err != nil {
		t.Fatalf("sharded faulted run failed: %v", err)
	}
	dump, err := os.ReadFile(filepath.Join(dir, "counters.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "\nengine_windows_total ") {
		t.Errorf("shards = 4 did not run on the engine; counters:\n%s", dump)
	}
}

func TestUsageErrors(t *testing.T) {
	bad := writeFile(t, "bad.toml", "version = 1\nprotocols = [\"warp\"]\n[scenario.topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n")
	single := writeFile(t, "scenario.toml", testScenario)
	reboots := writeFile(t, "reboots.toml", "version = 1\nname = \"r\"\nfaults = \"reboot:5@10s+20s; reboot:5@15s+20s\"\n"+
		"[topology]\nkind = \"grid\"\nrows = 4\ncols = 4\n")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no-args", []string{}, "no scenario or plan file"},
		{"missing-file", []string{"/nonexistent/plan.toml"}, "no such file"},
		{"bad-plan", []string{bad}, "unknown protocol"},
		{"scenario-max-cells", []string{single, "-max-cells", "2"}, "single scenario; -out/-max-cells apply"},
		{"resume-removed", []string{bad, "-resume", t.TempDir()}, "flag provided but not defined: -resume"},
		{"overlapping-reboots", []string{reboots}, "reboots of n5 overlap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("run(%v) = %v, want error containing %q", c.args, err, c.wantErr)
			}
		})
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// checkedInPlans pins each checked-in campaign plan's Fingerprint and
// the SHA-256 of its sorted cell keys joined by newlines, as recorded
// before the scenario schema lost the keys no checked-in document set:
// a cells.ndjson checkpoint written then still resumes. robustness.toml's
// fingerprint moved when its cells gained the invariant checker, so a
// checkpoint of cells run without it does not resume.
var checkedInPlans = map[string]struct {
	fingerprint string
	cells       int
	keys        string
}{
	"coding.toml":         {"de23c292a01b9854983fa015a26e561426703fffd45693db57149875c16443d0", 24, "173199e84070c34397e5b0c77d4fa52cd5ee5b1a3d1f61aacc94d7119ca824b8"},
	"mobility.toml":       {"b6c39a7e7edc48b96e5725514dce072cfe38e0d22a1ec70b831e3998db91cbcb", 24, "7f7dce50e0c64af786d5bcd03509afe8712b202c1bd65e8963e153c4481ffb59"},
	"robustness.toml":     {"e073a78b1919ef59cedf407a3d1bb05df81d93a3786560014c8d83fb9ec8b553", 24, "602a16271235b50dd64a1ba6cad4b9e20d9d01b4bbb0835602617b79b352db7b"},
	"smoke.toml":          {"2caace0c8ccaca2f391efb74214e4adf0d1f6c283faafecb7b136ac0a12317f6", 8, "f863dc0ba7f254b5354cc8f763e00ac41623102ce5da6839961b08f18e7f5575"},
	"comparison.toml":     {"343f1ceae3d425ac90ba10718f4f7673407f9c72a8a71c841b539da3fc7a288f", 4, "1ac770584d210981d3cfbe4542ed0d74055b47704dfae8db62f3ee6a49102118"},
	"campaign-slice.toml": {"f94cdec9c225a887e6bdfd0d8f40ebb89def96c542cb44df65a2b20a38bd56c1", 192, "1b05810da6746c822ec9d11e93dd2dcaa5df5ea64b0237553053d499e4a995e2"},
}

// TestCheckedInFilesParse reads every scenario and campaign plan kept
// in the repository the way mnprun does, and expands or compiles it, so
// a removed or renamed key cannot strand a checked-in file. Plans must
// keep their pinned fingerprint and cell keys.
func TestCheckedInFilesParse(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"../../examples/*/*.toml", "../../bench/workloads/*.toml"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, matches...)
	}
	if len(paths) < 7 {
		t.Fatalf("found %d checked-in files (%v), want at least 7", len(paths), paths)
	}
	plans := 0
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			plan, sc, err := parse(path, data)
			if err != nil {
				t.Fatal(err)
			}
			if sc != nil {
				if _, err := sc.Compile(); err != nil {
					t.Fatal(err)
				}
				return
			}
			plans++
			cells, err := plan.Expand()
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(cells))
			for i, c := range cells {
				keys[i] = c.Key
			}
			sort.Strings(keys)
			sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
			want, ok := checkedInPlans[filepath.Base(path)]
			if !ok {
				t.Fatalf("no pin for %s: fingerprint %s, %d cells, keys %x", path, plan.Fingerprint(), len(keys), sum)
			}
			if got := plan.Fingerprint(); got != want.fingerprint {
				t.Errorf("fingerprint = %s, want %s: existing checkpoints would no longer resume", got, want.fingerprint)
			}
			if len(keys) != want.cells || hex.EncodeToString(sum[:]) != want.keys {
				t.Errorf("%d cells with key hash %x, want %d cells with %s", len(keys), sum, want.cells, want.keys)
			}
		})
	}
	if plans != len(checkedInPlans) {
		t.Errorf("found %d checked-in plans, %d pinned", plans, len(checkedInPlans))
	}
}

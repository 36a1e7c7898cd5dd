package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mnp/internal/telemetry"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	_ = w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	_ = r.Close()
	return string(buf[:n]), runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T1", "F5", "F13", "EDEL", "A5"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"T1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("T1 output wrong:\n%s", out)
	}
}

func TestRunMultipleByID(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-seed", "5", "t1", "F5"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== T1") || !strings.Contains(out, "=== F5") {
		t.Errorf("multi-run output wrong:\n%s", out)
	}
}

func TestParallelRun(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-parallel", "T1", "F5"}) })
	if err != nil {
		t.Fatal(err)
	}
	// Reports stay in selection order even when run concurrently.
	t1 := strings.Index(out, "=== T1")
	f5 := strings.Index(out, "=== F5")
	if t1 < 0 || f5 < 0 || t1 > f5 {
		t.Fatalf("parallel output misordered:\n%s", out)
	}
}

func TestMultiSeedRun(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-seeds", "5, 9", "-workers", "2", "T1"}) })
	if err != nil {
		t.Fatal(err)
	}
	// One report per seed, in seed-list order regardless of which
	// worker finished first.
	s5 := strings.Index(out, "(seed 5)")
	s9 := strings.Index(out, "(seed 9)")
	if s5 < 0 || s9 < 0 || s5 > s9 {
		t.Fatalf("multi-seed output misordered:\n%s", out)
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

// TestTelemetryRun replays a 3×5-grid deployment with -telemetry and
// verifies the two artifacts: every NDJSON line parses back into a
// Record (meta first, summary last), and the Prometheus dump carries
// the run's counters.
func TestTelemetryRun(t *testing.T) {
	dir := artifactDir(t)
	out, err := capture(t, func() error {
		return run([]string{"-telemetry", dir, "-rows", "3", "-cols", "5", "-packets", "64", "-seed", "11", "-progress"})
	})
	if err != nil {
		t.Fatalf("telemetry run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "telemetry:") {
		t.Errorf("report does not mention telemetry:\n%s", out)
	}

	f, err := os.Open(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadAll(f)
	if err != nil {
		t.Fatalf("NDJSON stream does not fully parse: %v", err)
	}
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
	_, err := capture(t, func() error {
		return run([]string{"-telemetry", dir, "-faults", "reboot:7@30s+10s",
			"-rows", "3", "-cols", "5", "-packets", "64", "-seed", "11"})
	})
	if err != nil {
		t.Fatalf("faulted telemetry run failed: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Type == telemetry.TypeFault && r.Kind == "reboot" {
			found = true
			break
		}
	}
	if !found {
		t.Error("stream carries no reboot fault record")
	}
}

// TestProfilingFlags smoke-tests -cpuprofile and -trace: both files
// must exist and be non-empty after a short run.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	trc := filepath.Join(dir, "trace.out")
	_, err := capture(t, func() error {
		return run([]string{"-cpuprofile", cpu, "-trace", trc, "T1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, trc} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestTelemetryRejectsExperimentIDs(t *testing.T) {
	if err := run([]string{"-telemetry", t.TempDir(), "T1"}); err == nil {
		t.Error("-telemetry with experiment IDs accepted")
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no experiments accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-seeds", "x", "T1"}); err == nil {
		t.Error("unparsable seed list accepted")
	}
	if err := run([]string{"-seeds", ", ,", "T1"}); err == nil {
		t.Error("empty seed list accepted")
	}
}

// TestEngineFlagsReachOnlyDeployments pins where -shards/-tiles/
// -repartition go: explicitly into the -faults/-telemetry deployment
// (the run must reach the lockstep engine), and nowhere else — with
// experiment IDs, -csv or -scenario the flag is refused by name rather
// than silently dropped.
func TestEngineFlagsReachOnlyDeployments(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-shards", []string{"-shards", "2", "T1"}},
		{"-tiles", []string{"-tiles", "2x2", "-csv", t.TempDir()}},
		{"-repartition", []string{"-repartition", "-scenario", "deploy.toml"}},
	} {
		err := run(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}

	dir := artifactDir(t)
	_, err := capture(t, func() error {
		return run([]string{"-shards", "4", "-faults", "reboot:7@30s+10s", "-telemetry", dir,
			"-rows", "4", "-cols", "4", "-packets", "32", "-seed", "11"})
	})
	if err != nil {
		t.Fatalf("sharded faulted run failed: %v", err)
	}
	dump, err := os.ReadFile(filepath.Join(dir, "counters.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "\nengine_windows_total ") {
		t.Errorf("-shards 4 -faults did not run on the engine; counters:\n%s", dump)
	}
}

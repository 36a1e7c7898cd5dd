package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	os.Stdout = w
	runErr := fn()
	_ = w.Close()
	os.Stdout = old
	b := <-out
	_ = r.Close()
	return string(b), runErr
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

// TestParallelRun checks the pool's ordering: F5 is named first, so
// its report prints first even though T1, with no simulation, finishes
// long before it on the second worker.
func TestParallelRun(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-workers", "2", "F5", "T1"}) })
	if err != nil {
		t.Fatal(err)
	}
	t1 := strings.Index(out, "=== T1")
	f5 := strings.Index(out, "=== F5")
	if t1 < 0 || f5 < 0 || f5 > t1 {
		t.Fatalf("pool output misordered:\n%s", out)
	}
}

// TestWorkerCountsAgree: every (experiment, seed) job is an independent
// simulation and the reports print in job order, so stdout is the same
// bytes at any pool size, one worker or more workers than jobs.
func TestWorkerCountsAgree(t *testing.T) {
	var want string
	for _, workers := range []string{"1", "2", "8"} {
		out, err := capture(t, func() error { return run([]string{"-workers", workers, "-seeds", "5,9", "T1", "F5"}) })
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = out
		} else if out != want {
			t.Fatalf("-workers %s stdout differs from -workers 1:\n%s\nvs\n%s", workers, out, want)
		}
	}
	for _, h := range []string{"=== T1", "(seed 5)", "=== F5", "(seed 9)"} {
		if !strings.Contains(want, h) {
			t.Errorf("stdout missing %q:\n%s", h, want)
		}
	}
}

// stdoutGolden pins mnpexp's stdout, headers included; the digests
// must hold at every -workers value.
var stdoutGolden = []struct {
	args []string
	sum  string
}{
	{[]string{"-seeds", "42,7", "T1", "F8"}, "4b2dd22c64574a633cb4d7bae8ef715997b5eec4ef61567dfe2571a02dea9f1e"},
	{[]string{"-seed", "5", "T1", "F5", "F7"}, "94c57d4026ad254bd46ee8e4f3bc2e9dae2ea76e783c97db2abab9ab541165e5"},
}

func TestStdoutMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("F8 simulations skipped in -short mode")
	}
	for _, g := range stdoutGolden {
		for _, workers := range []string{"1", "2", "0"} {
			args := append([]string{"-workers", workers}, g.args...)
			out, err := capture(t, func() error { return run(args) })
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != g.sum {
				t.Errorf("%v: stdout sha256 = %s, want %s", args, got, g.sum)
			}
		}
	}
}

// TestCSV: -csv writes one file per series of the named experiments
// and nothing for an experiment that plots none.
func TestCSV(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, func() error { return run([]string{"-csv", dir, "T1"}) }); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("-csv with T1 wrote %d files", len(files))
	}
	if testing.Short() {
		t.Skip("F12's 20x20 run skipped in -short mode")
	}
	out, err := capture(t, func() error { return run([]string{"-csv", dir, "F12"}) })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f12_timeline.csv")
	if !strings.HasSuffix(out, "wrote "+path+"\n") {
		t.Errorf("stdout does not end with the wrote line:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(string(data), "\n"); header != "minute,advertisements,requests,data" {
		t.Errorf("header = %q", header)
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

// TestProfilingFlags smoke-tests -cpuprofile and -tracefile: both files
// must exist and be non-empty after a short run.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	trc := filepath.Join(dir, "trace.out")
	_, err := capture(t, func() error {
		return run([]string{"-cpuprofile", cpu, "-tracefile", trc, "T1"})
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
	// Series files are named per figure, so one directory cannot hold
	// several seeds' files.
	if err := run([]string{"-csv", t.TempDir(), "-seeds", "1,2", "T1"}); err == nil || !strings.Contains(err.Error(), "-seeds") {
		t.Errorf("-csv with -seeds: err = %v, want a rejection", err)
	}
	// The repartitioner and the deploy modes are gone: deployments run
	// through mnpsim (flags) and mnprun (files), and -workers sizes the
	// one pool, so each removed flag fails like any unknown flag; main
	// turns the error into exit 1. -trace is mnpsim's per-mote event
	// log; a runtime/trace is -tracefile on both commands.
	for _, args := range [][]string{
		{"-repartition"}, {"-faults", "x"}, {"-scenario", "f"}, {"-telemetry", "d"},
		{"-rows", "3"}, {"-shards", "2"}, {"-tiles", "2x2"}, {"-parallel"}, {"-trace", "5"},
	} {
		err := run(append(args, "T1"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want the flag package's not-defined error", args, err)
		}
	}
}

package main

import (
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
	// The repartitioner and the deploy modes are gone: deployments run
	// through mnpsim (flags) and mnprun (files), so each removed flag
	// fails like any unknown flag; main turns the error into exit 1.
	for _, args := range [][]string{
		{"-repartition"}, {"-faults", "x"}, {"-scenario", "f"}, {"-telemetry", "d"},
		{"-rows", "3"}, {"-shards", "2"}, {"-tiles", "2x2"},
	} {
		err := run(append(args, "T1"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want the flag package's not-defined error", args, err)
		}
	}
}

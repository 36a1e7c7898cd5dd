package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnp/internal/telemetry"
)

// capture redirects stdout around fn and returns what was printed.
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

func TestRunSummary(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-rows", "2", "-cols", "2", "-packets", "16", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"completed: all 4 nodes", "mean active radio time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReports(t *testing.T) {
	reports := map[string]string{
		"energy":   "per-node energy",
		"traffic":  "messages per minute",
		"parents":  "sender order",
		"progress": "propagation progress",
	}
	for report, want := range reports {
		out, err := capture(t, func() error {
			return run([]string{"-rows", "2", "-cols", "2", "-packets", "16", "-report", report})
		})
		if err != nil {
			t.Fatalf("%s: %v", report, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("report %s missing %q", report, want)
		}
	}
}

func TestRunTrace(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-rows", "1", "-cols", "2", "-packets", "16", "-trace", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event trace of node 1", "got full program"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

func TestRunBaselineProtocols(t *testing.T) {
	for _, proto := range []string{"deluge", "moap", "xnp"} {
		_, err := capture(t, func() error {
			return run([]string{"-rows", "1", "-cols", "2", "-packets", "16", "-protocol", proto})
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-protocol", "bogus"}); err == nil {
		t.Error("bogus protocol accepted")
	}
	if err := run([]string{"-rows", "0"}); err == nil {
		t.Error("zero rows accepted")
	}
	// A bad -report or -trace fails before anything is built or run.
	for _, args := range [][]string{
		{"-report", "bogus"},
		{"-rows", "2", "-cols", "2", "-trace", "4"},
		{"-rows", "2", "-cols", "2", "-trace", "-5"},
	} {
		out, err := capture(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("%v accepted", args)
		}
		if strings.Contains(out, "topology:") {
			t.Errorf("%v ran the simulation before failing:\n%s", args, out)
		}
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	// A negative worker count used to mean 1 to the engine and
	// GOMAXPROCS to the automatic grid; now it is an error (exit 1).
	err := run([]string{"-rows", "2", "-cols", "2", "-packets", "16", "-workers", "-3"})
	if err == nil || !strings.Contains(err.Error(), "worker count -3") {
		t.Errorf("-workers -3: err = %v, want the negative-worker-count error", err)
	}
	if err := run([]string{"-protocol", "bogus"}); err == nil || !strings.Contains(err.Error(), "gossip") {
		t.Errorf("-protocol bogus: err = %v, want an error listing the registered protocols", err)
	}
	// The removed speculation and repartitioner flags fail like any
	// unknown flag; main turns the error into exit status 1.
	for _, args := range [][]string{{"-optimistic"}, {"-lookahead", "8"}, {"-repartition"}} {
		err := run(append(args, "-rows", "2", "-cols", "2", "-packets", "16"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: err = %v, want the flag package's not-defined error", args, err)
		}
	}
	err = run([]string{"-tiles", "auto", "-rows", "2", "-cols", "2", "-packets", "16"})
	if err == nil || !strings.Contains(err.Error(), `want "RxC"`) {
		t.Errorf("-tiles auto: err = %v, want the tile-grid error naming the RxC form", err)
	}
	// A spacing that is not finite, or whose far corner overflows to
	// +Inf, is an error, not a hang in the spatial index.
	for _, sp := range []string{"inf", "NaN", "1e308"} {
		err := run([]string{"-rows", "1", "-cols", "3", "-packets", "16", "-spacing", sp})
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("-spacing %s: err = %v, want a not-finite error", sp, err)
		}
	}
}

func TestTelemetryAndLive(t *testing.T) {
	dir := t.TempDir()
	_, err := capture(t, func() error {
		return run([]string{"-rows", "2", "-cols", "2", "-packets", "16", "-seed", "3",
			"-telemetry", dir, "-live"})
	})
	if err != nil {
		t.Fatal(err)
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
	if len(recs) < 10 || recs[0].Type != telemetry.TypeMeta ||
		recs[len(recs)-1].Type != telemetry.TypeSummary {
		t.Fatalf("stream shape wrong: %d records", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "counters.prom")); err != nil {
		t.Error(err)
	}
}

// TestTilesDefaultExecutors pins -shards' default on a tile grid: one
// executor per tile, so -workers has tiles to spread.
func TestTilesDefaultExecutors(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-rows", "4", "-cols", "4", "-packets", "16", "-tiles", "2x2", "-workers", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "engine: tiles 2x2, executors 4,") {
		t.Errorf("want 4 executors on the 2x2 grid:\n%s", out)
	}
}

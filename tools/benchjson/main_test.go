package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
cpu: AMD EPYC 7B13
BenchmarkMediumTransmit/active=32-8  	    2000	     36168 ns/op	    8051 B/op	     210 allocs/op
BenchmarkKernelHeap-8               	 1000000	      1042 ns/op
some unrelated log line
PASS
ok  	mnp/internal/radio	2.345s
`

func TestParseGolden(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleBench)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header = %q/%q/%q", doc.Goos, doc.Goarch, doc.CPU)
	}
	want := []Result{
		{Name: "BenchmarkMediumTransmit/active=32", Iterations: 2000, NsPerOp: 36168, BytesPerOp: 8051, AllocsPerOp: 210, MemMeasured: true},
		{Name: "BenchmarkKernelHeap", Iterations: 1000000, NsPerOp: 1042},
	}
	if len(doc.Results) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(doc.Results), len(want), doc.Results)
	}
	for i, w := range want {
		if !reflect.DeepEqual(doc.Results[i], w) {
			t.Errorf("result %d = %+v, want %+v", i, doc.Results[i], w)
		}
	}
}

// TestEmitGolden pins the emitted JSON shape end to end, so downstream
// consumers of BENCH_sim.json notice schema drift here first.
func TestEmitGolden(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleBench)))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "goos": "linux",
  "goarch": "amd64",
  "cpu": "AMD EPYC 7B13",
  "results": [
    {
      "name": "BenchmarkMediumTransmit/active=32",
      "iterations": 2000,
      "ns_per_op": 36168,
      "bytes_per_op": 8051,
      "allocs_per_op": 210
    },
    {
      "name": "BenchmarkKernelHeap",
      "iterations": 1000000,
      "ns_per_op": 1042,
      "bytes_per_op": 0,
      "allocs_per_op": 0
    }
  ],
  "summary": {
    "bytes_per_op": {
      "BenchmarkMediumTransmit/active=32": 8051
    }
  }
}
`
	if b.String() != golden {
		t.Fatalf("emitted JSON drifted from golden:\n%s", b.String())
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("no benchmarks here\n"))); err == nil {
		t.Fatal("parse accepted input with no benchmark lines")
	}
}

// TestHistoryAppend covers the -out lifecycle: fresh file, append of a
// second revision, and upsert when the same SHA is benched again.
func TestHistoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleBench)))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, Entry{SHA: "aaa1111", Date: "2026-08-01", Doc: *doc}); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, Entry{SHA: "bbb2222", Date: "2026-08-06", Doc: *doc}); err != nil {
		t.Fatal(err)
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.History) != 2 || hist.History[0].SHA != "aaa1111" || hist.History[1].SHA != "bbb2222" {
		t.Fatalf("history = %+v", hist.History)
	}
	if hist.History[0].Date != "2026-08-01" || len(hist.History[1].Results) != 2 {
		t.Fatalf("entry contents lost: %+v", hist.History)
	}

	// Re-benching the same SHA replaces its entry in place.
	mod := *doc
	mod.Results = mod.Results[:1]
	if err := appendHistory(path, Entry{SHA: "bbb2222", Date: "2026-08-07", Doc: mod}); err != nil {
		t.Fatal(err)
	}
	hist, err = loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.History) != 2 {
		t.Fatalf("upsert duplicated: %d entries", len(hist.History))
	}
	if hist.History[1].Date != "2026-08-07" || len(hist.History[1].Results) != 1 {
		t.Fatalf("upsert did not replace: %+v", hist.History[1])
	}
}

// TestHistoryMigratesLegacyFile: the old overwrite-format file becomes
// the first history entry instead of being clobbered.
func TestHistoryMigratesLegacyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleBench)))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, Entry{SHA: "ccc3333", Date: "2026-08-06", Doc: *doc}); err != nil {
		t.Fatal(err)
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.History) != 2 {
		t.Fatalf("migration produced %d entries, want 2", len(hist.History))
	}
	if hist.History[0].SHA != "pre-history" || len(hist.History[0].Results) != 2 {
		t.Fatalf("legacy entry = %+v", hist.History[0])
	}
	if hist.History[1].SHA != "ccc3333" {
		t.Fatalf("new entry = %+v", hist.History[1])
	}
}

func TestLoadHistoryRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadHistory(path); err == nil {
		t.Fatal("garbage file accepted")
	}
}

func TestParseLineEdgeCases(t *testing.T) {
	// Name without a -N suffix survives unstripped: GOMAXPROCS was 1.
	r, procs, ok := parseLine("BenchmarkPlain 100 5 ns/op")
	if !ok || r.Name != "BenchmarkPlain" || r.Iterations != 100 || procs != 1 {
		t.Fatalf("parseLine = %+v, %d, %v", r, procs, ok)
	}
	// Non-numeric iteration count is rejected.
	if _, _, ok := parseLine("BenchmarkBad abc 5 ns/op"); ok {
		t.Fatal("parseLine accepted a bad iteration count")
	}
	// Short lines are rejected.
	if _, _, ok := parseLine("BenchmarkShort 100"); ok {
		t.Fatal("parseLine accepted a short line")
	}
	// Unknown units are captured as metrics; known ones still land.
	r, procs, ok = parseLine("BenchmarkMixed-4 10 7 ns/op 3 widgets/op 9 B/op")
	if !ok || r.NsPerOp != 7 || r.BytesPerOp != 9 || r.Name != "BenchmarkMixed" || procs != 4 {
		t.Fatalf("parseLine = %+v, %d", r, procs)
	}
	if r.Metrics["widgets/op"] != 3 {
		t.Fatalf("custom metric lost: %+v", r.Metrics)
	}
}

// TestEntryRecordsProcessors: a history entry says how many processors
// the run had — the host's count and the GOMAXPROCS in the benchmark
// names — and entries written before the fields existed keep their
// shape when the file is rewritten around them.
func TestEntryRecordsProcessors(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleBench)))
	if err != nil {
		t.Fatal(err)
	}
	e := newEntry("ccc3333", "2026-10-03", doc)
	if e.Nproc != runtime.NumCPU() || e.GOMAXPROCS != 8 {
		t.Fatalf("entry has nproc %d GOMAXPROCS %d, want %d and the names' 8", e.Nproc, e.GOMAXPROCS, runtime.NumCPU())
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := appendHistory(path, Entry{SHA: "old0000", Date: "2026-08-01", Doc: *doc}); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, e); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"nproc"`); n != 1 {
		t.Fatalf("%d entries carry nproc, want the new one only:\n%s", n, data)
	}
	if !strings.Contains(string(data), `"GOMAXPROCS": 8`) {
		t.Fatalf("GOMAXPROCS not written:\n%s", data)
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hist.History[1]; got.Nproc != e.Nproc || got.GOMAXPROCS != 8 || got.SHA != "ccc3333" {
		t.Fatalf("entry read back as %+v", got)
	}
}

// TestSummarySeries: -benchmem lines land in bytes_per_op (zeros
// included — the steady-state-alloc gate) and geo-B metrics build the
// node-count-keyed geometry-memory series.
func TestSummarySeries(t *testing.T) {
	const bench = `goos: linux
BenchmarkMediumTransmit/active=1-8  100  370 ns/op  0 B/op  0 allocs/op
BenchmarkGeometryBuild/n=1000-8     50   90000 ns/op  52000 geo-B  24576 B/op  9 allocs/op
BenchmarkGeometryBuild/n=250000-8   2    21000000 ns/op  6500000 geo-B  5000000 B/op  11 allocs/op
BenchmarkKernelHeap-8               1000 1042 ns/op
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(bench)))
	if err != nil {
		t.Fatal(err)
	}
	s := doc.Summary
	if s == nil {
		t.Fatal("no summary built")
	}
	if got, ok := s.BytesPerOp["BenchmarkMediumTransmit/active=1"]; !ok || got != 0 {
		t.Fatalf("zero-alloc benchmark missing from bytes_per_op: %+v (ok=%v)", s.BytesPerOp, ok)
	}
	if _, ok := s.BytesPerOp["BenchmarkKernelHeap"]; ok {
		t.Fatalf("unmeasured benchmark leaked into bytes_per_op: %+v", s.BytesPerOp)
	}
	if s.GeometryBytes["1000"] != 52000 || s.GeometryBytes["250000"] != 6.5e6 {
		t.Fatalf("geometry series = %+v", s.GeometryBytes)
	}
	if len(s.GeometryBytes) != 2 {
		t.Fatalf("geometry series has extra keys: %+v", s.GeometryBytes)
	}
	// The summary survives the history round-trip keyed by SHA.
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := appendHistory(path, Entry{SHA: "abc1234", Date: "2026-08-08", Doc: *doc}); err != nil {
		t.Fatal(err)
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if hist.History[0].Summary == nil || hist.History[0].Summary.GeometryBytes["250000"] != 6.5e6 {
		t.Fatalf("summary lost in history: %+v", hist.History[0].Summary)
	}
}

func TestSeriesKey(t *testing.T) {
	if k := seriesKey("BenchmarkGeometryBuild/n=1000"); k != "1000" {
		t.Fatalf("seriesKey = %q", k)
	}
	if k := seriesKey("BenchmarkOther"); k != "BenchmarkOther" {
		t.Fatalf("seriesKey fallback = %q", k)
	}
}

// Command benchjson converts `go test -bench -benchmem` output on
// stdin into machine-readable JSON, so the Makefile's bench target can
// commit numbers (BENCH_sim.json) next to the human-readable log.
//
// With -out FILE it appends a history entry — keyed by git SHA and
// date — to the file's "history" array instead of overwriting, so the
// committed document accumulates a benchmark timeline across
// revisions. Re-running on the same SHA replaces that SHA's entry
// rather than duplicating it. A legacy single-document file (the
// pre-history format) is migrated into the array on first append.
// Without -out, the single parsed document goes to stdout as before.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units (e.g. "geo-B" for the
	// radio geometry's resident bytes) that the fixed fields above do
	// not cover.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// MemMeasured records whether the line carried -benchmem fields at
	// all, so a genuine "0 B/op" is distinguishable from an unmeasured
	// run when building the summary.
	MemMeasured bool `json:"-"`
}

// Summary condenses a run into the two series the history gates on:
// allocation rate per benchmark and the geometry-memory curve. Keeping
// them keyed and flat makes a regression diff between two history
// entries a one-line jq, the same way ns_per_op already is.
type Summary struct {
	// BytesPerOp maps each -benchmem benchmark to its B/op, including
	// explicit zeros — the steady-state-alloc gate.
	BytesPerOp map[string]int64 `json:"bytes_per_op,omitempty"`
	// GeometryBytes maps node count (the "n=<count>" sub-benchmark
	// label) to the geometry's resident bytes from the geo-B metric.
	GeometryBytes map[string]float64 `json:"geometry_bytes,omitempty"`
}

// Doc is one benchmark run.
type Doc struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
	Summary *Summary `json:"summary,omitempty"`
	// Procs is the GOMAXPROCS the benchmarks ran under: the -N suffix
	// the harness appends to their names, 1 when it appends none.
	Procs int `json:"-"`
}

// Entry is one history element: a run stamped with its revision and
// with how many processors it had — the host's logical CPUs and the
// GOMAXPROCS the benchmarks ran under — without which a CPU model says
// little about a timing. Entries older than the two fields lack them.
type Entry struct {
	SHA        string `json:"sha"`
	Date       string `json:"date"`
	Nproc      int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"GOMAXPROCS,omitempty"`
	Doc
}

// newEntry stamps doc, parsed on this host from a run made on it.
func newEntry(sha, date string, doc *Doc) Entry {
	return Entry{SHA: sha, Date: date, Nproc: runtime.NumCPU(), GOMAXPROCS: doc.Procs, Doc: *doc}
}

// History is the -out file format.
type History struct {
	History []Entry `json:"history"`
}

func main() {
	var outPath, sha, date string
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		flagVal := func() string {
			i++
			if i >= len(args) {
				fmt.Fprintf(os.Stderr, "benchjson: %s needs a value\n", args[i-1])
				os.Exit(2)
			}
			return args[i]
		}
		switch args[i] {
		case "-out":
			outPath = flagVal()
		case "-sha":
			sha = flagVal()
		case "-date":
			date = flagVal()
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown flag %s (have -out, -sha, -date)\n", args[i])
			os.Exit(2)
		}
	}
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if outPath == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if sha == "" {
		sha = gitSHA()
	}
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}
	if err := appendHistory(outPath, newEntry(sha, date, doc)); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gitSHA asks git for the current revision; outside a repository the
// entry is stamped "unknown" rather than failing the bench run.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendHistory loads path (tolerating a missing file and migrating
// the legacy single-document format), upserts the entry by SHA, and
// writes the file back.
func appendHistory(path string, entry Entry) error {
	hist, err := loadHistory(path)
	if err != nil {
		return err
	}
	replaced := false
	for i := range hist.History {
		if hist.History[i].SHA == entry.SHA {
			hist.History[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		hist.History = append(hist.History, entry)
	}
	buf, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// loadHistory reads an existing history file. A legacy file — the
// old overwrite format, a single Doc — becomes the first history
// entry, stamped "pre-history" since its revision is unrecorded.
func loadHistory(path string) (*History, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &History{History: []Entry{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, ok := probe["history"]; ok {
		var hist History
		if err := json.Unmarshal(data, &hist); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &hist, nil
	}
	var legacy Doc
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(legacy.Results) == 0 {
		return &History{History: []Entry{}}, nil
	}
	return &History{History: []Entry{{SHA: "pre-history", Doc: legacy}}}, nil
}

func parse(sc *bufio.Scanner) (*Doc, error) {
	doc := &Doc{Results: []Result{}}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, procs, ok := parseLine(line)
			if ok {
				doc.Results = append(doc.Results, r)
				doc.Procs = max(doc.Procs, procs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	summarize(doc)
	return doc, nil
}

// summarize derives the gating series from the parsed results; a run
// with neither memory measurements nor geometry metrics keeps a nil
// summary and an unchanged document shape.
func summarize(doc *Doc) {
	s := &Summary{}
	for _, r := range doc.Results {
		if r.MemMeasured {
			if s.BytesPerOp == nil {
				s.BytesPerOp = map[string]int64{}
			}
			s.BytesPerOp[r.Name] = r.BytesPerOp
		}
		if v, ok := r.Metrics["geo-B"]; ok {
			if s.GeometryBytes == nil {
				s.GeometryBytes = map[string]float64{}
			}
			s.GeometryBytes[seriesKey(r.Name)] = v
		}
	}
	if s.BytesPerOp != nil || s.GeometryBytes != nil {
		doc.Summary = s
	}
}

// seriesKey reduces "BenchmarkGeometryBuild/n=250000" to "250000"; a
// name without the n= convention keys the series verbatim.
func seriesKey(name string) string {
	if i := strings.LastIndex(name, "/n="); i >= 0 {
		return name[i+3:]
	}
	return name
}

// parseLine handles one result line, e.g.
//
//	BenchmarkMediumTransmit/active=32-8  2000  36168 ns/op  8051 B/op  210 allocs/op
//
// Unit-carrying fields appear as "<value> <unit>" pairs after the
// iteration count; unknown units are ignored. The second result is the
// GOMAXPROCS the name's suffix states.
func parseLine(line string) (Result, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, 0, false
	}
	name, procs := fields[0], 1
	// Strip the -<GOMAXPROCS> suffix the harness appends (it appends
	// none at GOMAXPROCS 1).
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, 0, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			r.MemMeasured = true
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			// Custom b.ReportMetric units (geo-B, frames/sec, ...).
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = f
			}
		}
	}
	return r, procs, true
}

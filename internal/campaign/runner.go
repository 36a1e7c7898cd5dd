package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/packet"
)

// CellResult is one completed cell's outcome — everything the report
// needs, flattened into a checkpointable record.
type CellResult struct {
	Key      string `json:"key"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Topology string `json:"topology"`
	Mobility string `json:"mobility,omitempty"`
	Faults   string `json:"faults,omitempty"`

	// Nodes is the fleet size; Covered counts nodes holding the full
	// program when the run ended; Completed reports full coverage
	// within the time limit.
	Nodes     int  `json:"nodes"`
	Covered   int  `json:"covered"`
	Completed bool `json:"completed"`
	// TimeMS is the completion time in milliseconds (the time limit
	// when the run did not complete).
	TimeMS int64 `json:"time_ms"`
	// Whole-network frame totals.
	Tx         int `json:"tx"`
	Rx         int `json:"rx"`
	Collisions int `json:"collisions"`
	// RadioOnMS is radio-on time summed over nodes, in milliseconds.
	RadioOnMS int64 `json:"radio_on_ms"`
	// EnergyNAh is the fleet's radio + decode energy in nAh (summed
	// ledgers; decode is zero for uncoded protocols).
	EnergyNAh float64 `json:"energy_nah"`
	// Err records a failed cell (compile error, invariant violation).
	Err string `json:"err,omitempty"`
}

// Time returns the completion time as a duration.
func (r CellResult) Time() time.Duration { return time.Duration(r.TimeMS) * time.Millisecond }

// Runner executes a plan with per-cell checkpointing.
type Runner struct {
	Plan *Plan
	// Dir is the checkpoint directory; "" runs without checkpointing.
	// A cells.ndjson inside it records finished cells; re-running with
	// the same Dir resumes, skipping them. The final report lands in
	// report.txt.
	Dir string
	// Workers bounds campaign parallelism (cells run concurrently, one
	// single-threaded simulation each); 0 picks GOMAXPROCS.
	Workers int
	// MaxCells, when > 0, stops after executing that many new cells —
	// the hook CI and tests use to interrupt a campaign mid-flight and
	// exercise resume.
	MaxCells int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Outcome is what a Run produced.
type Outcome struct {
	// Cells is the full expanded matrix; Results holds the finished
	// cells sorted by key (all of them unless MaxCells stopped the
	// run early).
	Cells   []Cell
	Results []CellResult
	// Resumed counts cells loaded from the checkpoint; Executed counts
	// cells run by this invocation; Remaining counts cells still to do.
	Resumed, Executed, Remaining int
	// Report is the rendered comparison report, "" while cells remain.
	Report string
}

// checkpointHeader is the first line of cells.ndjson.
type checkpointHeader struct {
	Campaign    string `json:"campaign"`
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
}

// CheckpointFile is the NDJSON file inside Runner.Dir holding finished
// cells; ReportFile holds the final report.
const (
	CheckpointFile = "cells.ndjson"
	ReportFile     = "report.txt"
)

// Run expands the plan, skips cells the checkpoint already holds, runs
// the rest on the worker pool, and — once every cell is done — renders
// the report. The report is a deterministic function of the plan: the
// same bytes regardless of worker count, resume history, or cell
// finishing order.
func (r *Runner) Run() (*Outcome, error) {
	cells, err := r.Plan.Expand()
	if err != nil {
		return nil, err
	}
	done := map[string]CellResult{}
	var ckpt *checkpointWriter
	if r.Dir != "" {
		if err := os.MkdirAll(r.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign %s: %w", r.Plan.Name, err)
		}
		path := filepath.Join(r.Dir, CheckpointFile)
		done, err = loadCheckpoint(path, r.Plan)
		if err != nil {
			return nil, err
		}
		// A finished-cell record whose key the plan does not expand to
		// means the checkpoint and the plan disagree even though the
		// fingerprint line matched — a hand-edited file, or records
		// spliced in from another campaign. Resuming would silently
		// re-run some cells and carry foreign results into the report;
		// fail with the offending keys instead.
		var stale []string
		for key := range done {
			if !containsKey(cells, key) {
				stale = append(stale, key)
			}
		}
		if len(stale) > 0 {
			sort.Strings(stale)
			return nil, fmt.Errorf("campaign %s: %s holds %d cell(s) the plan does not expand to (%s) — the checkpoint is stale or was edited; use a fresh directory or delete it",
				r.Plan.Name, path, len(stale), strings.Join(stale, ", "))
		}
		ckpt, err = openCheckpoint(path, r.Plan, len(done) > 0)
		if err != nil {
			return nil, err
		}
	}

	pending := make([]Cell, 0, len(cells))
	for _, c := range cells {
		if _, ok := done[c.Key]; !ok {
			pending = append(pending, c)
		}
	}
	stopped := 0
	if r.MaxCells > 0 && len(pending) > r.MaxCells {
		stopped = len(pending) - r.MaxCells
		pending = pending[:r.MaxCells]
	}
	r.logf("campaign %s: %d cells, %d resumed, %d to run",
		r.Plan.Name, len(cells), len(done), len(pending))

	executed, err := r.runPool(pending, ckpt)
	if ckpt != nil {
		if cerr := ckpt.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %s: checkpoint: %w", r.Plan.Name, err)
	}

	out := &Outcome{
		Cells:     cells,
		Resumed:   len(done),
		Executed:  len(executed),
		Remaining: stopped,
	}
	results := make([]CellResult, 0, len(done)+len(executed))
	for _, res := range done {
		results = append(results, res)
	}
	results = append(results, executed...)
	sort.Slice(results, func(i, j int) bool { return results[i].Key < results[j].Key })
	out.Results = results

	if out.Remaining == 0 {
		out.Report = Report(r.Plan, results)
		if r.Dir != "" {
			path := filepath.Join(r.Dir, ReportFile)
			if err := os.WriteFile(path, []byte(out.Report), 0o644); err != nil {
				return nil, fmt.Errorf("campaign %s: %w", r.Plan.Name, err)
			}
		}
	}
	return out, nil
}

// runPool executes cells on the bounded pool, appending each finished
// cell to the checkpoint as it lands. Results come back indexed by
// cell, so the slice order is deterministic even though completion
// order is not. A failed append does not stop the pool; the first one
// is returned once every cell has run.
func (r *Runner) runPool(pending []Cell, ckpt *checkpointWriter) ([]CellResult, error) {
	if len(pending) == 0 {
		return nil, nil
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	out := make([]CellResult, len(pending))
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes checkpoint appends, ckptErr and progress lines
	var ckptErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res := RunCell(pending[i])
				out[i] = res
				mu.Lock()
				if ckpt != nil {
					if err := ckpt.append(res); err != nil && ckptErr == nil {
						ckptErr = err
					}
				}
				r.logf("  %s: done=%d/%d time=%v tx=%d%s",
					res.Key, res.Covered, res.Nodes, res.Time(), res.Tx, errSuffix(res.Err))
				mu.Unlock()
			}
		}()
	}
	for i := range pending {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, ckptErr
}

func errSuffix(err string) string {
	if err == "" {
		return ""
	}
	return " ERROR: " + err
}

// RunCell compiles and runs one cell's scenario and condenses the run
// into a CellResult. Failures (compile errors, invariant violations)
// are recorded on the result, not returned — one broken cell must not
// sink a campaign. Once the result is read, the run hands its kernel,
// memo and motes' state on to the next cell (experiment.Result.Release).
func RunCell(c Cell) CellResult {
	out := CellResult{
		Key:      c.Key,
		Protocol: c.Protocol,
		Seed:     c.Seed,
		Topology: c.Topology,
		Mobility: c.Mobility,
		Faults:   c.Faults,
	}
	setup, err := c.Scenario.Compile()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	res, err := experiment.Run(setup)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if verr := res.VerifyInvariants(); verr != nil {
		out.Err = "invariant: " + verr.Error()
	}
	until := res.CompletionTime
	if !res.Completed {
		until = res.Setup.Limit
	}
	snap := res.Collector.Snapshot(until)
	out.Nodes = snap.Nodes
	out.Covered = snap.Completed
	out.Completed = res.Completed
	out.TimeMS = until.Milliseconds()
	out.Tx = snap.Tx
	out.Rx = snap.Rx
	out.Collisions = snap.Collisions
	out.RadioOnMS = snap.RadioOnTotal.Milliseconds()
	for id := 0; id < snap.Nodes; id++ {
		l := res.Collector.Ledger(packet.NodeID(id), until)
		out.EnergyNAh += l.RadioCharge() + l.DecodeCharge()
	}
	res.Release()
	return out
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func containsKey(cells []Cell, key string) bool {
	for _, c := range cells {
		if c.Key == key {
			return true
		}
	}
	return false
}

// loadCheckpoint reads finished cells from path. A missing file is an
// empty checkpoint. The header must carry the plan's fingerprint — a
// stale directory from a different plan is an error, not a silent
// partial resume. A torn final line (the process was killed mid-append)
// is dropped; torn interior lines mean real corruption and fail.
func loadCheckpoint(path string, p *Plan) (map[string]CellResult, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]CellResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", p.Name, err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	done := map[string]CellResult{}
	if len(lines) == 0 || lines[0] == "" {
		return done, nil
	}
	var hdr checkpointHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		if len(lines) == 1 {
			return done, nil // torn header from a kill mid-write; start over
		}
		return nil, fmt.Errorf("campaign %s: %s: corrupt header: %w", p.Name, path, err)
	}
	if hdr.Schema != Version {
		return nil, fmt.Errorf("campaign %s: %s: checkpoint schema %d (want %d)", p.Name, path, hdr.Schema, Version)
	}
	if hdr.Fingerprint != p.Fingerprint() {
		return nil, fmt.Errorf("campaign %s: %s was written by a different plan — use a fresh directory or delete it", p.Name, path)
	}
	for i, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var res CellResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			if i == len(lines)-2 {
				break // torn final line
			}
			return nil, fmt.Errorf("campaign %s: %s line %d: %w", p.Name, path, i+2, err)
		}
		done[res.Key] = res
	}
	return done, nil
}

// checkpointWriter appends finished cells to cells.ndjson, syncing
// after every line so a kill loses at most the cell in flight.
type checkpointWriter struct {
	f *os.File
	w *bufio.Writer
}

// openCheckpoint opens path for appending, writing the header when the
// file is fresh. resume reports whether loadCheckpoint found entries;
// when it found none the file is truncated so a torn header does not
// accumulate.
func openCheckpoint(path string, p *Plan, resume bool) (*checkpointWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", p.Name, err)
	}
	cw := &checkpointWriter{f: f, w: bufio.NewWriter(f)}
	if !resume {
		line, err := json.Marshal(checkpointHeader{Campaign: p.Name, Schema: Version, Fingerprint: p.Fingerprint()})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign %s: %w", p.Name, err)
		}
		cw.w.Write(line)
		cw.w.WriteByte('\n')
		if err := cw.flush(); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign %s: %w", p.Name, err)
		}
	}
	return cw, nil
}

func (c *checkpointWriter) append(res CellResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err // CellResult is plain data; cannot happen
	}
	c.w.Write(line)
	c.w.WriteByte('\n')
	return c.flush()
}

func (c *checkpointWriter) flush() error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.f.Sync()
}

// Close flushes and closes the checkpoint.
func (c *checkpointWriter) Close() error {
	if err := c.flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

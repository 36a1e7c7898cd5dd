package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the one list of workload and metric names,
// units and regression bounds. The harness prints metrics by walking
// it, so a name cannot be printed without appearing there, and a name
// listed there without a measured value is an error.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: name %q does not match %s", path, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q is used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := check(w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		if err := check(m.Name); err != nil {
			return nil, err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q", path, m.Name, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %s has no bound", path, m.Name)
		}
	}
	return &sp, nil
}

// checkWorkloads requires the spec and the harness to name the same
// workloads, each way.
func (sp *spec) checkWorkloads(ws []workload) error {
	have := map[string]bool{}
	for _, w := range ws {
		have[w.name] = true
	}
	for _, w := range sp.Workloads {
		if !have[w.Name] {
			return fmt.Errorf("spec names workload %q, which the harness does not have", w.Name)
		}
		delete(have, w.Name)
	}
	for name := range have {
		return fmt.Errorf("workload %q is missing from the spec", name)
	}
	return nil
}

// hostRecord travels with every result so a number is never quoted
// without its host.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Degraded marks a host with fewer than two CPUs, where the engine
	// and campaign workloads run on one worker.
	Degraded bool `json:"degraded"`
}

func hostInfo() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     gitHead(".git"),
		Degraded:   runtime.NumCPU() < 2,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// gitHead resolves HEAD of the git directory by hand (go run stamps no
// VCS data); "unknown" when the checkout is not a git repository, as the
// driver's is not.
func gitHead(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

// sample is one metric of one workload: the reported value and the
// per-operation samples behind it, one list per simulation seed (a
// single list for metrics that do not depend on it).
type sample struct {
	Value   float64     `json:"value"`
	Unit    string      `json:"unit"`
	Samples [][]float64 `json:"samples"`
}

func single(v float64) sample { return sample{Value: v, Samples: [][]float64{{v}}} }

// span returns the smallest and largest sample and their count.
func (s sample) span() (lo, hi float64, n int) {
	lo, hi = s.Value, s.Value
	for _, vals := range s.Samples {
		for _, v := range vals {
			lo, hi, n = min(lo, v), max(hi, v), n+1
		}
	}
	return lo, hi, n
}

type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

// resultFile is what a run leaves under -out and what -compare reads.
type resultFile struct {
	Host      hostRecord                `json:"host"`
	Seed      int64                     `json:"seed"`
	Trace     bool                      `json:"trace"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func (r *resultFile) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func runFile(o options, workload string) string {
	return filepath.Join(o.out, fmt.Sprintf("run-%s-%s.json", o.pass(), workload))
}

// driverLine is the last line of standard output: exactly these keys.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in this process, prints its metrics by
// name with units, writes the result file, and ends standard output
// with the driver's JSON line. It returns the exit code: non-zero when
// any correctness check failed.
func runWorkload(sp *spec, ws []workload, o options, stdout io.Writer) int {
	w, ok := findWorkload(ws, o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	host := hostInfo()
	fmt.Fprintf(stdout, "workload %s seed %d trace %v | nproc %d GOMAXPROCS %d %s %q commit %s degraded %v\n",
		w.name, o.seed, o.trace, host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit, host.Degraded)

	var res workloadResult
	var listed []specMetric
	if o.trace {
		listed = sp.PerLayer
		tr := newTracer(w.name)
		layers, err := tracedPass(w, o.seed, engineWorkers(), o.out, tr)
		res = workloadResult{Correct: err == nil, Attempted: 1, Metrics: map[string]sample{}}
		if err != nil {
			res.Failed, res.Errors = 1, []string{err.Error()}
		}
		for name, v := range layers {
			res.Metrics[name] = single(v)
		}
		if err := tr.write(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	} else {
		listed = sp.EndToEnd
		res = timedPass(w, o.seed, o.seconds, engineWorkers(), o.out)
	}

	// Names go both ways: nothing was measured that the spec does not
	// list, and every listed metric was measured (a traced workload
	// reports 0 for the layers it does not use).
	listedNames := map[string]bool{}
	for _, m := range listed {
		listedNames[m.Name] = true
	}
	for name := range res.Metrics {
		if !listedNames[name] {
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s was measured but is not in the spec", name))
		}
	}
	line := driverLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, m := range listed {
		s, ok := res.Metrics[m.Name]
		if !ok && !o.trace {
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is in the spec but was not measured", m.Name))
		}
		s.Unit = m.Unit
		res.Metrics[m.Name] = s
		line.Metrics[m.Name] = driverMetric{Value: s.Value, Unit: m.Unit}
		if lo, hi, n := s.span(); n > 1 {
			fmt.Fprintf(stdout, "  %-34s %16.6g %-12s min %.6g max %.6g n %d\n", m.Name, s.Value, m.Unit, lo, hi, n)
		} else {
			fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", m.Name, s.Value, m.Unit)
		}
	}
	sort.Strings(res.Errors)
	res.Correct = res.Correct && len(res.Errors) == 0
	line.Correct = res.Correct
	for _, e := range res.Errors {
		fmt.Fprintf(stdout, "  FAILED: %s\n", e)
	}
	fmt.Fprintf(stdout, "  operations attempted %d failed %d failed_share %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))

	file := resultFile{Host: host, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Workloads: map[string]workloadResult{w.name: res}}
	if err := file.write(runFile(o, w.name)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// Command bench is the repository's benchmark: six workloads, ten
// end-to-end metrics measured with tracing off, and a separate traced
// pass that attributes host time to layers by replaying captured
// traffic into one layer at a time. BENCHMARK.json at the repository
// root names every workload and metric; README.md explains the choices.
//
//	go run ./bench -seed 42                  all workloads, untraced
//	go run ./bench -seed 42 -trace           all workloads, per-layer pass
//	go run ./bench -workload fig8-dense      one workload (how the driver calls it)
//	go run ./bench -compare a.json b.json    judge b against a by the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// specFile is read from the working directory: the harness runs from
// the repository root, as `go run ./bench` does.
const specFile = "BENCHMARK.json"

type options struct {
	out      string
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// pass names the pass in file names.
func (o options) pass() string {
	if o.trace {
		return "traced"
	}
	return "timed"
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	var compare bool
	traceArg := "0"
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result, span and scratch files")
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: each in a child process)")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed: the first simulation seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "timed seconds per workload (default: run_seconds of the spec)")
	fs.StringVar(&traceArg, "trace", traceArg, "1 for the traced per-layer pass, 0 for the timed pass")
	fs.BoolVar(&compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if traceArg != "0" && traceArg != "1" {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	o.trace = traceArg == "1"
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := sp.checkWorkloads(workloads()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), os.Stdout)
	case o.workload != "":
		return runWorkload(sp, workloads(), o, os.Stdout)
	default:
		return runAll(sp, o)
	}
}

// normalizeTrace lets -trace stand alone (the issue's spelling) and
// take a separate 0 or 1 (the driver's): "-trace" becomes "-trace=1"
// and "-trace 0" becomes "-trace=0".
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if args[i] != "-trace" && args[i] != "--trace" {
			out = append(out, args[i])
			continue
		}
		v := "1"
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			v = args[i+1]
			i++
		}
		out = append(out, "-trace="+v)
	}
	return out
}

// engineWorkers is the worker count for the engine and the campaign
// pool: the product's own parallelism, capped at two so results from
// larger hosts stay comparable with the reference container's.
func engineWorkers() int { return min(2, runtime.NumCPU()) }

// runAll runs every workload in a freshly exec'd child, one at a time,
// so peak_rss_mb is per workload, and merges their result files.
func runAll(sp *spec, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	merged := resultFile{Host: hostInfo(), Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Workloads: map[string]workloadResult{}}
	code := 0
	traceFlag := "-trace=0"
	if o.trace {
		traceFlag = "-trace=1"
	}
	for _, w := range sp.Workloads {
		cmd := exec.Command(self, "-out", o.out, "-workload", w.Name,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), traceFlag)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
		}
		one, err := readResults(runFile(o, w.Name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		merged.Workloads[w.Name] = one.Workloads[w.Name]
	}
	path := filepath.Join(o.out, fmt.Sprintf("results-%s-seed%d.json", o.pass(), o.seed))
	if err := merged.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("results written to %s\n", path)
	return code
}

// Command mnpexp reproduces the paper's tables and figures:
//
//	mnpexp -list                          # show available experiments
//	mnpexp T1 F5 EDEL                     # run specific experiments
//	mnpexp all                            # run everything (minutes of CPU)
//	mnpexp -seeds 1,2,3 -workers 2 F8     # one run per (experiment, seed)
//	mnpexp -csv out/ F8 F10 F11 F12 F13   # also write the plotted series
//
// Deployments described in flags run through mnpsim, and scenario
// files and campaign plans through mnprun; mnpexp keeps only the
// paper's specs.
//
// Profiling hooks (all default off):
//
//	mnpexp -pprof localhost:6060 all         # live /debug/pprof + /debug/vars
//	mnpexp -cpuprofile cpu.out -tracefile trace.out F8
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mnp/internal/experiment"
	"mnp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnpexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnpexp", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		seed     = fs.Int64("seed", 42, "simulation seed")
		seeds    = fs.String("seeds", "", "comma-separated seed list; runs each experiment once per seed")
		workers  = fs.Int("workers", 0, "worker pool size for the (experiment, seed) runs (0 = GOMAXPROCS)")
		csvDir   = fs.String("csv", "", "also write each named figure's plotted series as <name>.csv into this directory")
		progress = fs.Bool("progress", false, "report per-experiment progress on stderr")

		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof and /debug/vars on this address for the whole invocation")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		tracePath  = fs.String("tracefile", "", "write a runtime/trace capture to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := telemetry.StartProfiling(telemetry.ProfileConfig{
		PprofAddr: *pprofAddr, CPUProfile: *cpuProfile, TracePath: *tracePath,
	})
	if err != nil {
		return err
	}
	defer stopProf()
	if *list {
		for _, s := range experiment.AllSpecs() {
			fmt.Printf("  %-5s %s\n", s.ID, s.Title)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiments named; try -list or 'all'")
	}
	var specs []experiment.Spec
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		specs = experiment.AllSpecs()
	} else {
		for _, id := range ids {
			s, ok := experiment.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			specs = append(specs, s)
		}
	}
	seedList := []int64{*seed}
	if *seeds != "" {
		if *csvDir != "" {
			return fmt.Errorf("-csv writes one file per series and cannot take -seeds")
		}
		if seedList, err = parseSeeds(*seeds); err != nil {
			return err
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	// Every (experiment, seed) pair is an independent simulation: run
	// them on one pool and print the reports in job order, so the
	// output is the same at any worker count.
	type job struct {
		spec experiment.Spec
		seed int64
		rep  experiment.Report
		err  error
		done chan struct{}
	}
	var jobs []*job
	for _, s := range specs {
		for _, sd := range seedList {
			jobs = append(jobs, &job{spec: s, seed: sd, done: make(chan struct{})})
		}
	}
	n := *workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	// On an early return, workers finish the job in hand and quit.
	defer wg.Wait()
	defer stop.Store(true)
	for w := 0; w < min(n, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if *progress && i%len(seedList) == 0 {
					fmt.Fprintf(os.Stderr, "sweep: %s (%d/%d), %d seeds on %d workers\n",
						j.spec.ID, i/len(seedList)+1, len(specs), len(seedList), n)
				}
				j.rep, j.err = j.spec.Run(j.seed)
				close(j.done)
			}
		}()
	}
	var series []experiment.Series
	for _, j := range jobs {
		<-j.done
		id, title := j.spec.ID, j.spec.Title
		if *seeds != "" {
			id, title = fmt.Sprintf("%s seed %d", id, j.seed), fmt.Sprintf("%s (seed %d)", title, j.seed)
		}
		if j.err != nil {
			return fmt.Errorf("%s: %w", id, j.err)
		}
		fmt.Printf("=== %s — %s ===\n", j.spec.ID, title)
		fmt.Println(j.rep.Text)
		series = append(series, j.rep.Series...)
	}
	if *csvDir == "" {
		return nil
	}
	for _, s := range series {
		path := filepath.Join(*csvDir, s.Name+".csv")
		if err := writeCSV(path, s); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func writeCSV(path string, s experiment.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSeeds(list string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds given but no seeds parsed from %q", list)
	}
	return out, nil
}

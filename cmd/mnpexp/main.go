// Command mnpexp reproduces the paper's tables and figures:
//
//	mnpexp -list          # show available experiments
//	mnpexp T1 F5 EDEL     # run specific experiments
//	mnpexp all            # run everything (minutes of CPU)
//
// Deployments described in flags run through mnpsim, and scenario
// files and campaign plans through mnprun; mnpexp keeps only the
// paper's specs.
//
// Profiling hooks (all default off):
//
//	mnpexp -pprof localhost:6060 all         # live /debug/pprof + /debug/vars
//	mnpexp -cpuprofile cpu.out -trace trace.out F8
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"mnp"
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
		seeds    = fs.String("seeds", "", "comma-separated seed list; runs each experiment once per seed on a worker pool")
		workers  = fs.Int("workers", 0, "worker pool size for -seeds (0 = GOMAXPROCS)")
		parallel = fs.Bool("parallel", false, "run the selected experiments concurrently")
		csvDir   = fs.String("csv", "", "write the series figures' raw data as CSV files into this directory and exit")
		progress = fs.Bool("progress", false, "report -seeds sweep progress on stderr")

		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof and /debug/vars on this address for the whole invocation")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		tracePath  = fs.String("trace", "", "write a runtime/trace capture to this file")
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
	if *csvDir != "" {
		paths, err := experiment.WriteCSVs(*csvDir, *seed)
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Println("wrote", p)
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
	if *seeds != "" {
		seedList, err := parseSeeds(*seeds)
		if err != nil {
			return err
		}
		// Multi-seed fan-out: each experiment runs once per seed on a
		// worker pool. RunSeeds merges deterministically — reports come
		// back in seed-list order no matter which worker finishes first.
		for si, s := range specs {
			if *progress {
				fmt.Fprintf(os.Stderr, "sweep: %s (%d/%d), %d seeds on %d workers\n",
					s.ID, si+1, len(specs), len(seedList), *workers)
			}
			for _, r := range mnp.RunSeeds(s, seedList, *workers) {
				if r.Err != nil {
					return fmt.Errorf("%s seed %d: %w", s.ID, r.Seed, r.Err)
				}
				fmt.Printf("=== %s — %s (seed %d) ===\n", s.ID, s.Title, r.Seed)
				fmt.Println(r.Report)
			}
		}
		return nil
	}
	if !*parallel {
		for _, s := range specs {
			fmt.Printf("=== %s — %s ===\n", s.ID, s.Title)
			out, err := s.Run(*seed)
			if err != nil {
				return fmt.Errorf("%s: %w", s.ID, err)
			}
			fmt.Println(out)
		}
		return nil
	}
	// Parallel: every spec is an independent simulation; run them all
	// concurrently and print the reports in the original order.
	type outcome struct {
		out string
		err error
	}
	results := make([]outcome, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := s.Run(*seed)
			results[i] = outcome{out: out, err: err}
		}()
	}
	wg.Wait()
	for i, s := range specs {
		if results[i].err != nil {
			return fmt.Errorf("%s: %w", s.ID, results[i].err)
		}
		fmt.Printf("=== %s — %s ===\n", s.ID, s.Title)
		fmt.Println(results[i].out)
	}
	return nil
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

// Command mnpexp reproduces the paper's tables and figures:
//
//	mnpexp -list          # show available experiments
//	mnpexp T1 F5 EDEL     # run specific experiments
//	mnpexp all            # run everything (minutes of CPU)
//
// It also runs chaos deployments — dissemination under an injected
// fault plan with the protocol-invariant checker attached:
//
//	mnpexp -faults 'reboot:7@30s+10s; eeprom:*:0.01'
//	mnpexp -faults 'randkill:6@20s-145s' -rows 8 -cols 8 -seed 22
//
// Scenario files (see internal/scenario) replace hand-wired flags
// with a checked-in document; with several seeds in the file (or
// -seeds) the run fans out on a worker pool and prints the campaign
// comparison table:
//
//	mnpexp -scenario deploy.toml
//	mnpexp -scenario deploy.toml -seeds 1,2,3 -workers 4
//
// Telemetry and profiling hooks (all default off):
//
//	mnpexp -telemetry out/ -rows 3 -cols 5   # NDJSON event stream + counters
//	mnpexp -pprof localhost:6060 all         # live /debug/pprof + /debug/vars
//	mnpexp -cpuprofile cpu.out -trace trace.out F8
//
// With -telemetry, the deployment writes out/events.ndjson (one JSON
// object per line, schema-versioned; pipe through jq) and
// out/counters.prom (Prometheus text format).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mnp"
	"mnp/internal/campaign"
	"mnp/internal/experiment"
	"mnp/internal/faults"
	"mnp/internal/invariant"
	"mnp/internal/scenario"
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
		faultStr = fs.String("faults", "", "run a chaos deployment under this fault spec (e.g. 'crash:5@20s; eeprom:*:0.01'); see internal/faults")
		scenPath = fs.String("scenario", "", "run the deployment a scenario file describes (TOML/JSON; see internal/scenario)")
		rows     = fs.Int("rows", 8, "deployment grid rows (-faults / -telemetry runs)")
		cols     = fs.Int("cols", 8, "deployment grid cols (-faults / -telemetry runs)")
		packets  = fs.Int("packets", 128, "deployment image size in packets (-faults / -telemetry runs)")
		shards   = fs.Int("shards", 1, "contiguous strips advanced in lockstep (1 = one tile, the classic single kernel); with -tiles: logical executors (-faults / -telemetry runs)")
		tiles    = fs.String("tiles", "", `2D tile grid "RxC" (e.g. 4x4) or "auto"; default: -shards contiguous strips (-faults / -telemetry runs)`)
		repart   = fs.Bool("repartition", false, "adaptively migrate tiles between executors at lockstep barriers (-faults / -telemetry runs)")

		telemetryDir = fs.String("telemetry", "", "write NDJSON events + Prometheus counters for a deployment run into this directory")
		pprofAddr    = fs.String("pprof", "", "serve /debug/pprof and /debug/vars on this address for the whole invocation")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		tracePath    = fs.String("trace", "", "write a runtime/trace capture to this file")
		progress     = fs.Bool("progress", false, "report live deployment progress on stderr")
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
	tileRows, tileCols, tileAuto, err := experiment.ParseTileSpec(*tiles)
	if err != nil {
		return err
	}
	// The engine flags configure the one deployment -faults/-telemetry
	// build. Paper specs are single-kernel by definition and scenario
	// files carry their own [run] keys, so anywhere else a set flag
	// would be silently ignored: refuse it by name instead.
	engineFlag := ""
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" || f.Name == "tiles" || f.Name == "repartition" {
			engineFlag = "-" + f.Name
		}
	})
	if engineFlag != "" && (*scenPath != "" || *csvDir != "" || len(fs.Args()) > 0) {
		return fmt.Errorf("%s reaches only -faults/-telemetry deployments; experiment IDs and -csv run the paper's single-kernel setups, and a -scenario file sets shards/tiles in its [run] table", engineFlag)
	}
	if *scenPath != "" {
		if len(fs.Args()) > 0 {
			return fmt.Errorf("-scenario runs its own deployment; drop the experiment IDs %v", fs.Args())
		}
		if *faultStr != "" || *telemetryDir != "" {
			return fmt.Errorf("-scenario carries faults and telemetry in the file; drop -faults/-telemetry")
		}
		return runScenario(*scenPath, *seeds, *workers, *progress)
	}
	if *faultStr != "" || *telemetryDir != "" {
		if len(fs.Args()) > 0 {
			return fmt.Errorf("-faults/-telemetry run their own deployment; drop the experiment IDs %v", fs.Args())
		}
		return runDeploy(experiment.Setup{
			Name: "deploy", Rows: *rows, Cols: *cols, ImagePackets: *packets,
			Seed: *seed, Limit: 12 * time.Hour,
			Shards: *shards, TileRows: tileRows, TileCols: tileCols, TileAuto: tileAuto,
			Repartition: *repart,
			Invariants:  &invariant.Config{},
		}, *faultStr, *telemetryDir, *progress)
	}
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

// runDeploy executes the dissemination run setup describes — optionally
// under a parsed fault plan — with the invariant checker attached, then
// reports the outcome: who died, who completed, how many EEPROM faults
// were absorbed, and whether every surviving image is byte-identical
// and every protocol invariant held. With telemetryDir set, the run also
// streams NDJSON events and dumps the final counters in Prometheus
// text format.
func runDeploy(setup experiment.Setup, spec string, telemetryDir string, progress bool) error {
	if spec != "" {
		plan, err := faults.ParseSpec(spec)
		if err != nil {
			return err
		}
		fmt.Println(plan)
		setup.Faults = plan
	}
	return execDeploy(setup, telemetryDir, progress)
}

// runScenario executes the deployment a scenario file describes. One
// seed runs through the full deploy path (telemetry per the file's
// [telemetry] table, images and invariants verified); several seeds —
// from the file's seed list or -seeds — fan out as a degenerate
// campaign and print the comparison table.
func runScenario(path, seedsFlag string, workers int, progress bool) error {
	sc, err := scenario.ParseFile(path)
	if err != nil {
		return err
	}
	seedList := sc.SeedList()
	if seedsFlag != "" {
		if seedList, err = parseSeeds(seedsFlag); err != nil {
			return err
		}
	}
	if len(seedList) > 1 {
		plan, err := campaign.PlanForScenario(*sc, seedList, workers)
		if err != nil {
			return err
		}
		out, err := (&campaign.Runner{Plan: plan, Logf: func(format string, args ...any) {
			if progress {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}}).Run()
		if err != nil {
			return err
		}
		fmt.Print(out.Report)
		for _, res := range out.Results {
			if res.Err != "" {
				return fmt.Errorf("seed %d: %s", res.Seed, res.Err)
			}
		}
		return nil
	}
	sc.Run.Seed = seedList[0]
	sc.Run.Seeds = nil
	setup, err := sc.Compile()
	if err != nil {
		return err
	}
	telemetryDir := ""
	if sc.Telemetry != nil {
		telemetryDir = sc.Telemetry.Dir
		progress = progress || sc.Telemetry.Progress
	}
	return execDeploy(setup, telemetryDir, progress)
}

// execDeploy wires progress and telemetry around a setup, runs it, and
// verifies the outcome — the shared tail of -faults/-telemetry and
// -scenario runs.
func execDeploy(setup experiment.Setup, telemetryDir string, progress bool) error {
	var prog *telemetry.Progress
	if progress {
		n := setup.Rows * setup.Cols
		if setup.Layout != nil {
			n = setup.Layout.N()
		}
		prog = telemetry.NewProgress(os.Stderr, setup.Name, n, time.Second)
		setup.Observer = prog
	}
	var stream *telemetry.Stream
	// The recorder timestamps storage operations with the run clock (the
	// kernel sequentially, the engine's replay clock when sharded), which
	// exists only once the deployment is built; bind it lazily.
	var clock func() time.Duration
	if telemetryDir != "" {
		if err := os.MkdirAll(telemetryDir, 0o755); err != nil {
			return err
		}
		var err error
		stream, err = telemetry.CreateStream(filepath.Join(telemetryDir, "events.ndjson"))
		if err != nil {
			return err
		}
		defer stream.Close()
		rec, err := telemetry.NewRecorder(stream, func() time.Duration {
			if clock == nil {
				return 0
			}
			return clock()
		})
		if err != nil {
			return err
		}
		setup.Telemetry = rec
	}
	res, err := experiment.Build(setup)
	if err != nil {
		return err
	}
	clock = res.Now
	return finishDeploy(res, setup, telemetryDir, stream, prog)
}

func finishDeploy(res *experiment.Result, setup experiment.Setup, telemetryDir string, stream *telemetry.Stream, prog *telemetry.Progress) error {
	res.RunToCompletion()
	res.FinishTelemetry()
	if prog != nil {
		prog.Final()
	}

	dead, completed, eepromFaults := 0, 0, 0
	for _, n := range res.Network.Nodes {
		if n.Dead() {
			dead++
		} else if n.Completed() {
			completed++
		}
		eepromFaults += n.EEPROM().FaultCount()
	}
	fmt.Printf("nodes: %d total, %d dead, %d survivors completed\n",
		res.Layout.N(), dead, completed)
	if eepromFaults > 0 {
		fmt.Printf("eeprom: absorbed %d injected write faults\n", eepromFaults)
	}
	if res.Completed {
		fmt.Printf("completion: %v\n", res.CompletionTime)
	} else {
		fmt.Println("completion: survivors did not all finish within the limit")
	}

	if telemetryDir != "" {
		counters := res.Counters()
		counters.PublishExpvar("mnp")
		promPath := filepath.Join(telemetryDir, "counters.prom")
		f, err := os.Create(promPath)
		if err != nil {
			return err
		}
		if err := counters.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := stream.Close(); err != nil {
			return fmt.Errorf("telemetry stream: %w", err)
		}
		fmt.Printf("telemetry: %d NDJSON records in %s, counters in %s\n",
			stream.Lines(), filepath.Join(telemetryDir, "events.ndjson"), promPath)
	}

	if err := res.VerifyImages(); err != nil {
		return fmt.Errorf("image verification: %w", err)
	}
	fmt.Println("images: every survivor holds a byte-identical copy")
	if err := res.VerifyInvariants(); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	fmt.Println("invariants: write-once, in-order, advertisement, sleep, sender-exclusivity all held")
	if !res.Completed {
		return fmt.Errorf("deployment incomplete")
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

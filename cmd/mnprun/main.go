// Command mnprun executes scenario files and campaign plans — the
// declarative face of the simulator:
//
//	mnprun scenario.toml                  # one deployment, full verification
//	mnprun plan.toml -out results/        # expand the matrix, checkpoint per cell
//	mnprun plan.toml -out results/        # run again: resumes, skips finished cells
//	mnprun plan.toml -out results/ -max-cells 3   # stop early (CI resume drills)
//
// A document with a [scenario] table or sweep axes (protocols, seeds,
// [[topologies]], [[mobilities]], fault_plans) is a campaign plan;
// anything else is a single scenario. Campaigns write cells.ndjson (one
// finished cell per line, resumable) and report.txt into -out; the
// aggregated comparison report also goes to stdout and is
// byte-deterministic: the same plan produces the same report regardless
// of worker count or how many times the campaign was interrupted and
// resumed. A failed cell does not stop the campaign, but mnprun exits 1
// if any finished cell failed, a -max-cells stop included.
//
// A scenario runs with its [telemetry] table honoured (an NDJSON event
// stream and a Prometheus counters dump in dir) and fails unless every
// survivor holds a byte-identical image and, with [invariants] enabled,
// every protocol invariant held.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mnp/internal/campaign"
	"mnp/internal/experiment"
	"mnp/internal/scenario"
	"mnp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnprun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnprun", flag.ContinueOnError)
	var (
		out      = fs.String("out", "", "campaign checkpoint directory (cells.ndjson, report.txt); campaigns re-run with the same -out resume")
		workers  = fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		maxCells = fs.Int("max-cells", 0, "stop after running this many new cells (0 = run everything)")
		quiet    = fs.Bool("quiet", false, "suppress per-cell progress on stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: mnprun [flags] file.toml [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Accept flags on either side of the file argument (mnprun
	// plan.toml -out dir/ reads naturally).
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("no scenario or plan file named")
	}
	path := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("one file at a time; unexpected %v", fs.Args())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, sc, err := parse(path, data)
	if err != nil {
		return err
	}
	if plan != nil {
		return runCampaign(plan, *out, *workers, *maxCells, *quiet)
	}
	if *out != "" || *maxCells != 0 {
		return fmt.Errorf("%s is a single scenario; -out/-max-cells apply to campaign plans", path)
	}
	return runScenario(sc)
}

// parse reads a document as a campaign plan or as a single scenario.
func parse(path string, data []byte) (*campaign.Plan, *scenario.Scenario, error) {
	if isCampaign(data) {
		plan, err := campaign.ParsePlan(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return plan, nil, nil
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return nil, sc, nil
}

// isCampaign sniffs the document kind: campaign plans have a nested
// scenario table or at least one sweep axis.
func isCampaign(data []byte) bool {
	generic, err := scenario.ParseDocument(data)
	if err != nil {
		return false // let the scenario parser report the error
	}
	for _, key := range []string{"scenario", "protocols", "seeds", "topologies", "mobilities", "fault_plans"} {
		if _, ok := generic[key]; ok {
			return true
		}
	}
	return false
}

func runCampaign(plan *campaign.Plan, dir string, workers, maxCells int, quiet bool) error {
	r := &campaign.Runner{Plan: plan, Dir: dir, Workers: workers, MaxCells: maxCells}
	if !quiet {
		r.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	outcome, err := r.Run()
	if err != nil {
		return err
	}
	failed := 0
	for _, res := range outcome.Results {
		if res.Err != "" {
			failed++
		}
	}
	if outcome.Remaining > 0 {
		fmt.Printf("campaign %s: stopped with %d/%d cells done (%d failed), %d still to run; re-run with the same -out to resume\n",
			plan.Name, len(outcome.Results), len(outcome.Cells), failed, outcome.Remaining)
	} else {
		fmt.Print(outcome.Report)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed", failed, len(outcome.Results))
	}
	return nil
}

// runScenario runs one deployment and verifies it: who died, who
// completed, how many EEPROM faults were absorbed, whether every
// survivor's image is byte-identical and, with a checker attached,
// whether every protocol invariant held.
func runScenario(sc *scenario.Scenario) error {
	setup, err := sc.Compile()
	if err != nil {
		return err
	}
	var tel *telemetry.Dir
	if t := sc.Telemetry; t != nil && t.Dir != "" {
		if tel, err = telemetry.CreateDir(t.Dir); err != nil {
			return err
		}
		defer tel.Close()
		setup.Telemetry = tel.Recorder()
	}
	res, err := experiment.Run(setup)
	if err != nil {
		return err
	}

	dead, down, completed, eepromFaults := 0, 0, 0, 0
	for _, n := range res.Network.Nodes {
		switch {
		case n.Dead():
			dead++
		case n.Down():
			down++
		}
		if !n.Dead() && n.Completed() {
			completed++
		}
		eepromFaults += n.EEPROM().FaultCount()
	}
	fmt.Printf("scenario %s: %d nodes, %d dead, %d down, %d survivors completed\n",
		setup.Name, res.Layout.N(), dead, down, completed)
	if eepromFaults > 0 {
		fmt.Printf("eeprom: absorbed %d injected write faults\n", eepromFaults)
	}
	if res.Completed {
		fmt.Printf("completion: %v\n", res.CompletionTime.Round(time.Millisecond))
	} else {
		fmt.Println("completion: survivors did not all finish within the limit")
	}
	if tel != nil {
		line, err := tel.Finish(res.Counters())
		if err != nil {
			return err
		}
		fmt.Println(line)
	}

	if err := res.VerifyImages(); err != nil {
		return fmt.Errorf("image verification: %w", err)
	}
	fmt.Println("images: every survivor holds a byte-identical copy")
	if err := res.VerifyInvariants(); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	if res.Invariants != nil {
		fmt.Println("invariants: write-once, in-order, advertisement, sleep, sender-exclusivity all held")
	}
	if !res.Completed {
		return fmt.Errorf("deployment incomplete")
	}
	return nil
}

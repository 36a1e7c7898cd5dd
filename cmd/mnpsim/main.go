// Command mnpsim runs one simulated dissemination and prints a report:
//
//	mnpsim -rows 10 -cols 10 -packets 640 -protocol mnp -report energy
//
// Protocols: mnp (default), deluge, moap, xnp, rlnc or gossip (-h lists them).
// Reports: summary (default), energy, traffic, parents, progress.
//
// Telemetry and profiling (all default off): -telemetry dir/ streams
// the run as NDJSON plus a Prometheus counters dump; -pprof,
// -cpuprofile and -tracefile capture profiles; -live prints progress
// on stderr.
//
// -shards N cuts the deployment into N contiguous strips advanced in
// conservative lockstep (deterministic per (seed, shards); see
// DESIGN.md §4f); -workers controls tile parallelism. -tiles RxC
// switches to 2D tile partitioning with -shards logical executors, one
// per tile by default (results stay a pure function of (seed, tile
// grid); see DESIGN.md §4i).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/telemetry"
	"mnp/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mnpsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mnpsim", flag.ContinueOnError)
	var (
		rows     = fs.Int("rows", 10, "grid rows")
		cols     = fs.Int("cols", 10, "grid columns")
		spacing  = fs.Float64("spacing", 10, "inter-node spacing in feet")
		packets  = fs.Int("packets", 640, "program size in 22-byte packets")
		protocol = fs.String("protocol", "mnp", "protocol: "+strings.Join(experiment.ProtocolNames(), ", "))
		power    = fs.Int("power", radio.PowerSim, "TinyOS transmit power level (1,3,4,20,50,255)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		shards   = fs.Int("shards", 0, "spatial shards run in lockstep (0 or 1 = classic sequential kernel); with -tiles: logical executors (0 = one per tile)")
		workers  = fs.Int("workers", 0, "executor goroutines: 0 auto, 1 inline, N parallel (needs an engine run)")
		tiles    = fs.String("tiles", "", `2D tile grid "RxC" (e.g. 4x4); default: -shards contiguous strips`)
		limit    = fs.Duration("limit", 6*time.Hour, "simulated time limit")
		report   = fs.String("report", "summary", "report: summary, energy, traffic, parents, progress")
		traceID  = fs.Int("trace", -1, "dump the protocol event trace of one node ID (-1 disables)")

		telemetryDir = fs.String("telemetry", "", "write NDJSON events + Prometheus counters into this directory")
		pprofAddr    = fs.String("pprof", "", "serve /debug/pprof and /debug/vars on this address")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		tracePath    = fs.String("tracefile", "", "write a runtime/trace capture to this file")
		live         = fs.Bool("live", false, "report live run progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	printReport, ok := reports[strings.ToLower(*report)]
	if !ok {
		return fmt.Errorf("unknown report %q", *report)
	}
	if *traceID < -1 || *traceID >= *rows**cols {
		return fmt.Errorf("-trace %d: no such mote in a %dx%d grid", *traceID, *rows, *cols)
	}
	stopProf, err := telemetry.StartProfiling(telemetry.ProfileConfig{
		PprofAddr: *pprofAddr, CPUProfile: *cpuProfile, TracePath: *tracePath,
	})
	if err != nil {
		return err
	}
	defer stopProf()

	tileRows, tileCols, err := experiment.ParseTileSpec(*tiles)
	if err != nil {
		return err
	}
	setup := experiment.Setup{
		Name:         "mnpsim",
		Rows:         *rows,
		Cols:         *cols,
		Spacing:      *spacing,
		ImagePackets: *packets,
		Protocol:     experiment.ProtocolKind(*protocol),
		Power:        *power,
		Seed:         *seed,
		Shards:       *shards,
		Workers:      *workers,
		TileRows:     tileRows,
		TileCols:     tileCols,
		Limit:        *limit,
	}
	// The trace log reads the run's clock (the kernel sequentially, the
	// engine's replay clock when sharded), which exists once Build
	// returns; nothing is traced before the run starts.
	var (
		res       *experiment.Result
		tlog      *trace.Log
		observers node.MultiObserver
	)
	if *traceID >= 0 {
		id := packet.NodeID(*traceID)
		tlog, err = trace.NewLog(func() time.Duration { return res.Now() },
			trace.WithNodeFilter(func(n packet.NodeID) bool { return n == id }))
		if err != nil {
			return err
		}
		observers = append(observers, tlog)
	}
	var prog *telemetry.Progress
	if *live {
		prog = telemetry.NewProgress(os.Stderr, "mnpsim", *rows**cols, time.Second)
		observers = append(observers, prog)
	}
	switch len(observers) {
	case 0:
	case 1:
		setup.Observer = observers[0]
	default:
		setup.Observer = observers
	}
	var tel *telemetry.Dir
	if *telemetryDir != "" {
		if tel, err = telemetry.CreateDir(*telemetryDir); err != nil {
			return err
		}
		defer tel.Close()
		setup.Telemetry = tel.Recorder()
	}
	if res, err = experiment.Build(setup); err != nil {
		return err
	}
	if err := res.RunToCompletion(); err != nil {
		return err
	}
	res.FinishTelemetry()
	if prog != nil {
		prog.Final()
	}
	if tel != nil {
		line, err := tel.Finish(res.Counters())
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, line)
	}

	ct := res.CompletionTime
	fmt.Printf("topology: %s (%d nodes), program: %d packets (%.1f KB), protocol: %s, power: %d, seed: %d\n",
		res.Layout.Name(), res.Layout.N(), res.Image.TotalPackets(),
		float64(res.Image.Size())/1024, res.Setup.Protocol, *power, *seed)
	if res.Completed {
		fmt.Printf("completed: all %d nodes in %s\n", res.Layout.N(), ct.Round(time.Second))
	} else {
		fmt.Printf("INCOMPLETE after %s: %d/%d nodes\n",
			limit.Round(time.Second), res.Network.CompletedCount(), res.Layout.N())
	}
	if res.Engine != nil {
		st := res.Engine.Stats()
		fmt.Printf("engine: tiles %s, executors %d, windows %d, ghosts exported %d\n",
			res.TileGrid, res.Engine.Executors(), st.Windows, st.GhostsExported)
	}
	fmt.Printf("mean active radio time: %s (%s excluding initial idle listening)\n",
		res.Collector.MeanActiveRadioTime(ct).Round(time.Second),
		res.Collector.MeanActiveRadioTimeAfterFirstAdv(ct).Round(time.Second))
	fmt.Printf("concurrent same-neighborhood data senders: %d (two-hop overlaps: %d)\n",
		res.Collector.ConcurrencyViolations(), res.Collector.TwoHopOverlaps())

	if printReport != nil {
		printReport(res)
	}
	if tlog != nil {
		fmt.Printf("\nevent trace of node %d:\n", *traceID)
		if err := tlog.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// reports maps each -report name to its printer; the summary is the
// lines every run prints.
var reports = map[string]func(*experiment.Result){
	"summary":  nil,
	"energy":   printEnergy,
	"traffic":  printTraffic,
	"parents":  printParents,
	"progress": printProgress,
}

func printEnergy(res *experiment.Result) {
	ct := res.CompletionTime
	fmt.Println("\nper-node energy (nAh, Table 1 costs):")
	var total float64
	for i := 0; i < res.Layout.N(); i++ {
		id := packet.NodeID(i)
		l := res.Collector.Ledger(id, ct)
		total += l.Total()
		if i < 10 || i == res.Layout.N()-1 {
			fmt.Printf("  %v: %s\n", id, l)
		} else if i == 10 {
			fmt.Println("  ...")
		}
	}
	fmt.Printf("network total: %.0f nAh (mean %.0f nAh/node)\n",
		total, total/float64(res.Layout.N()))
}

func printTraffic(res *experiment.Result) {
	fmt.Println("\nmessages per minute (adv / req / data):")
	for m, w := range res.Collector.MessageMix() {
		fmt.Printf("  minute %3d: %5d / %5d / %5d\n", m, w[0], w[1], w[2])
	}
}

func printParents(res *experiment.Result) {
	fmt.Println()
	for i := 0; i < res.Layout.N(); i++ {
		id := packet.NodeID(i)
		parent, ok := res.Collector.Parent(id)
		switch {
		case id == 0:
			fmt.Printf("  %v: base station\n", id)
		case ok:
			fmt.Printf("  %v <- %v\n", id, parent)
		default:
			fmt.Printf("  %v: no parent recorded\n", id)
		}
	}
	fmt.Print("sender order:")
	for i, id := range res.Collector.SenderOrder() {
		fmt.Printf(" %d:%v", i+1, id)
	}
	fmt.Println()
}

func printProgress(res *experiment.Result) {
	ct := res.CompletionTime
	fmt.Println("\npropagation progress:")
	for pct := 10; pct <= 100; pct += 10 {
		t := ct * time.Duration(pct) / 100
		fmt.Printf("  %3d%% of time: %5.1f%% of nodes hold the program\n",
			pct, 100*res.Collector.CompletedFractionAt(t))
	}
}

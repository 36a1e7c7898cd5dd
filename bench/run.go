package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mnp/internal/campaign"
	"mnp/internal/experiment"
	"mnp/internal/packet"
)

// simStats are the modelled system's results for one operation. They
// repeat exactly for a fixed seed.
type simStats struct {
	completionS   float64 // simulated stop time: completion, or Limit
	coverage      float64 // motes holding the full image / motes
	activeRadioS  float64 // mean active radio time (the paper's Fig 8 quantity)
	txFrames      int
	cellsExecuted int // campaign only
}

// An op is one operation: one simulation run, or one campaign of cells.
type op struct {
	setupS float64 // one Build (campaign: ParsePlan + Expand)
	wallS  float64 // RunToCompletion + FinishTelemetry (campaign: Runner.Run)
	memDelta
	sim    simStats
	digest string
	// attempted and failed count operations: 1 for a simulation, one
	// per cell for the campaign.
	attempted, failed int
	err               error
}

// memDelta is the allocation and collector activity across Build and
// the run.
type memDelta struct {
	allocMB, allocs float64
	gcs             uint32
	gcPause         time.Duration
}

func memSince(a *runtime.MemStats) memDelta {
	var b runtime.MemStats
	runtime.ReadMemStats(&b)
	return memDelta{
		allocMB: float64(b.TotalAlloc-a.TotalAlloc) / 1e6,
		allocs:  float64(b.Mallocs - a.Mallocs),
		gcs:     b.NumGC - a.NumGC,
		gcPause: time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// runSim executes one simulation operation. hook, when non-nil, runs
// between Build and the run so the traced pass can attach its capture;
// drive, when non-nil, replaces RunToCompletion.
func runSim(s experiment.Setup, windowed bool, hook func(*experiment.Result), drive func(*experiment.Result)) (op, *experiment.Result) {
	o := op{attempted: 1}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := experiment.Build(s)
	o.setupS = time.Since(t0).Seconds()
	if err != nil {
		o.err, o.failed = fmt.Errorf("build: %w", err), 1
		return o, nil
	}
	if hook != nil {
		hook(res)
	}
	t1 := time.Now()
	if drive != nil {
		drive(res)
	} else {
		res.RunToCompletion()
	}
	res.FinishTelemetry()
	o.wallS = time.Since(t1).Seconds()
	o.memDelta = memSince(&m0)

	stop := res.CompletionTime
	if !res.Completed {
		stop = res.Setup.Limit
	}
	o.sim, o.digest = simResults(res, stop)
	switch {
	case windowed:
		// Ends at Limit by design; the caller compares digests.
	case !res.Completed:
		o.err = fmt.Errorf("incomplete: %d/%d motes at %v", res.Network.CompletedCount(), len(res.Network.Nodes), stop)
	default:
		if err := res.VerifyImages(); err != nil {
			o.err = fmt.Errorf("verify images: %w", err)
		}
	}
	if o.err != nil {
		o.failed = 1
	}
	return o, res
}

// simResults reads the simulated statistics off a finished run and
// hashes them: stop time, snapshot totals and per-class counts, and
// every node's completion time.
func simResults(res *experiment.Result, stop time.Duration) (simStats, string) {
	snap := res.Collector.Snapshot(stop)
	st := simStats{
		completionS:  stop.Seconds(),
		coverage:     float64(snap.Completed) / float64(snap.Nodes),
		activeRadioS: res.Collector.MeanActiveRadioTime(stop).Seconds(),
		txFrames:     snap.Tx,
	}
	h := sha256.New()
	fmt.Fprintln(h, stop, snap.Nodes, snap.Completed, snap.Tx, snap.Rx, snap.Collisions,
		snap.EEPROMReadBytes, snap.EEPROMWriteBytes, snap.DecodeOps, snap.SenderEvents,
		snap.ConcurrencyViolations, snap.RadioOnTotal)
	for _, byClass := range []map[packet.Class]int{snap.TxByClass, snap.RxByClass} {
		classes := make([]int, 0, len(byClass))
		for c := range byClass {
			classes = append(classes, int(c))
		}
		sort.Ints(classes)
		for _, c := range classes {
			fmt.Fprintln(h, c, byClass[packet.Class(c)])
		}
	}
	for _, n := range res.Network.Nodes {
		fmt.Fprintln(h, n.Completed(), n.CompletedAt())
	}
	return st, hex.EncodeToString(h.Sum(nil))
}

// runCampaign executes the campaign operation: parse and expand the
// plan, run every cell through campaign.Runner with checkpointing into
// a fresh directory under scratch, and digest report.txt.
func runCampaign(planText []byte, workers int, scratch string) (op, *campaign.Outcome) {
	var o op
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	plan, cells, err := expandPlan(planText)
	o.setupS = time.Since(t0).Seconds()
	if err != nil {
		o.err, o.attempted, o.failed = fmt.Errorf("plan: %w", err), 1, 1
		return o, nil
	}
	o.attempted = len(cells)
	dir, err := os.MkdirTemp(scratch, "campaign-")
	if err != nil {
		o.err, o.failed = err, o.attempted
		return o, nil
	}
	defer os.RemoveAll(dir)
	t1 := time.Now()
	out, err := (&campaign.Runner{Plan: plan, Dir: dir, Workers: workers}).Run()
	o.wallS = time.Since(t1).Seconds()
	o.memDelta = memSince(&m0)
	if err != nil {
		o.err, o.failed = fmt.Errorf("campaign: %w", err), o.attempted
		return o, nil
	}
	report, err := os.ReadFile(dir + "/" + campaign.ReportFile)
	if err != nil {
		o.err, o.failed = err, o.attempted
		return o, out
	}
	sum := sha256.Sum256(report)
	o.digest = hex.EncodeToString(sum[:])

	var nodes, covered int
	for _, c := range out.Results {
		if c.Err != "" || !c.Completed {
			o.failed++
			if o.err == nil {
				o.err = fmt.Errorf("cell %s: completed=%v err=%q", c.Key, c.Completed, c.Err)
			}
		}
		nodes += c.Nodes
		covered += c.Covered
		o.sim.completionS += c.Time().Seconds()
		o.sim.activeRadioS += float64(c.RadioOnMS) / 1e3 / float64(c.Nodes)
		o.sim.txFrames += c.Tx
	}
	n := float64(len(out.Results))
	o.sim.completionS /= n
	o.sim.activeRadioS /= n
	o.sim.coverage = float64(covered) / float64(nodes)
	o.sim.cellsExecuted = out.Executed
	return o, out
}

// expandPlan is the campaign's set-up: parse the plan and expand its
// matrix into cells.
func expandPlan(text []byte) (*campaign.Plan, []campaign.Cell, error) {
	plan, err := campaign.ParsePlan(text)
	if err != nil {
		return nil, nil, err
	}
	cells, err := plan.Expand()
	return plan, cells, err
}

// runOp executes one untraced operation of w.
func runOp(w workload, seed int64, workers int, scratch string) op {
	if w.plan != nil {
		o, _ := runCampaign(w.plan(seed), workers, scratch)
		return o
	}
	o, _ := runSim(w.setup(seed, workers), w.windowed, nil, nil)
	return o
}

// timeBuilds times one block of k back-to-back set-ups and returns the
// seconds per set-up.
func timeBuilds(w workload, seed int64, workers, k int) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < k; i++ {
		var err error
		if w.plan != nil {
			_, _, err = expandPlan(w.plan(seed))
		} else {
			_, err = experiment.Build(w.setup(seed, workers))
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(k), nil
}

// timedPass is the untraced pass of one workload: a discarded warm-up,
// then whole cycles over the workload's simulation seeds until seconds
// have passed, each operation preceded by one timed block of set-ups.
// An operation whose digest differs from an earlier one at the same
// simulation seed fails.
func timedPass(w workload, seed int64, seconds float64, workers int, scratch string) workloadResult {
	res := workloadResult{Metrics: map[string]sample{}}
	digests := map[int64]string{}
	check := func(o *op, simSeed int64) {
		if o.err != nil {
			return
		}
		if d, ok := digests[simSeed]; ok && d != o.digest {
			o.err = fmt.Errorf("seed %d: digest %s differs from an earlier run's %s", simSeed, o.digest, d)
			o.failed = o.attempted
		}
		digests[simSeed] = o.digest
	}
	count := func(o op) {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.err != nil {
			res.Errors = append(res.Errors, o.err.Error())
		}
	}

	warm := runOp(w, seed, workers, scratch)
	check(&warm, seed)
	count(warm)

	perSeed := make([][]op, w.seeds)
	var setups []float64
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start).Seconds() < seconds; cycle++ {
		for j := range perSeed {
			simSeed := seed + int64(j)
			if w.buildsPerBlock > 1 {
				s, err := timeBuilds(w, simSeed, workers, w.buildsPerBlock)
				if err != nil {
					res.Errors = append(res.Errors, fmt.Sprintf("set-up block: %v", err))
					continue
				}
				setups = append(setups, s)
			}
			o := runOp(w, simSeed, workers, scratch)
			check(&o, simSeed)
			count(o)
			if o.err != nil {
				continue
			}
			if w.buildsPerBlock == 1 {
				// One build is the block: the operation's own.
				setups = append(setups, o.setupS)
			}
			perSeed[j] = append(perSeed[j], o)
		}
	}

	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	for j := range perSeed {
		if len(perSeed[j]) == 0 {
			res.Correct = false
			return res
		}
	}
	// A metric's value is the mean over simulation seeds of the median
	// over that seed's repeats.
	add := func(name string, get func(op) float64) {
		var s sample
		for _, ops := range perSeed {
			vals := make([]float64, len(ops))
			for i, o := range ops {
				vals[i] = get(o)
			}
			s.Value += median(vals) / float64(len(perSeed))
			s.Samples = append(s.Samples, vals)
		}
		res.Metrics[name] = s
	}
	add("wall_s", func(o op) float64 { return o.wallS })
	add("alloc_mb", func(o op) float64 { return o.allocMB })
	add("allocs", func(o op) float64 { return o.allocs })
	add("sim_completion_s", func(o op) float64 { return o.sim.completionS })
	add("sim_coverage", func(o op) float64 { return o.sim.coverage })
	add("sim_active_radio_s", func(o op) float64 { return o.sim.activeRadioS })
	add("sim_tx_frames", func(o op) float64 { return float64(o.sim.txFrames) })
	res.Metrics["setup_s"] = sample{Value: median(setups), Samples: [][]float64{setups}}
	res.Metrics["ok_share"] = single(1 - float64(res.Failed)/float64(res.Attempted))
	res.Metrics["peak_rss_mb"] = single(peakRSSMB())
	return res
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), "kB"), &kb)
			return kb / 1024
		}
	}
	return 0
}

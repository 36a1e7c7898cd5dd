package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mnp/internal/campaign"
	"mnp/internal/experiment"
	"mnp/internal/metrics"
	"mnp/internal/radio"
	"mnp/internal/telemetry"
)

// layerMetrics holds one traced pass's per-layer numbers by name.
// Metrics a workload does not exercise stay 0.
type layerMetrics map[string]float64

// tracedPass runs w once untraced for reference and once more with the
// capture hooks attached, replays the capture into one layer at a time,
// and returns the per-layer metrics. The error is the first failed
// correctness check.
func tracedPass(w workload, seed int64, workers int, scratch string, tr *tracer) (layerMetrics, error) {
	m := layerMetrics{}
	tr.begin(w.name)
	defer tr.end()
	if w.plan != nil {
		return m, traceCampaign(w, seed, workers, scratch, tr, m)
	}

	// Reference: the workload as the timed pass runs it.
	var ref op
	var refRes *experiment.Result
	tr.in("reference", func() { ref, refRes = runSim(w.setup(seed, workers), w.windowed, nil, nil) })
	if ref.err != nil {
		return m, fmt.Errorf("reference run: %w", ref.err)
	}
	m["runtime.gc_cycles"] = float64(ref.gcs)
	m["runtime.gc_pause_ms"] = ref.gcPause.Seconds() * 1e3
	m["sim.speed"] = ref.sim.completionS / ref.wallS
	var engineEvents int
	var oneWorkerS float64
	if refRes.Engine != nil {
		var err error
		if engineEvents, oneWorkerS, err = traceEngine(w, seed, ref, refRes, tr, m); err != nil {
			return m, err
		}
	}
	hits, misses, invalidations := cacheStats(refRes)
	if hits+misses > 0 {
		m["radio.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	m["radio.cache_misses"] = float64(misses)
	m["radio.cache_invalidations"] = float64(invalidations)
	refRes = nil

	// The layers below the engine are captured on the sequential path:
	// the workload itself, or an engine workload's sequential twin,
	// whose per-shard sinks cannot be teed from outside.
	setup := w.setup(seed, workers)
	base := ref
	if w.twin != nil {
		setup = w.twin(seed)
		tr.in("twin", func() { base, _ = runSim(setup, w.windowed, nil, nil) })
		if base.err != nil {
			return m, fmt.Errorf("sequential twin: %w", base.err)
		}
		m["engine.overhead_ratio"] = oneWorkerS / base.wallS
	}

	if err := measureBuild(setup, tr, m); err != nil {
		return m, err
	}

	// The traced run: capture attached, kernel stepped by the harness.
	// About a dozen hook calls per frame; sized up front so the capture
	// does not spend the traced run regrowing.
	c := &capture{calls: make([]call, 0, 12*base.sim.txFrames)}
	setup.Observer = c
	var events, depthSum int
	var traced op
	var res *experiment.Result
	tr.in("traced", func() {
		traced, res = runSim(setup, w.windowed,
			func(r *experiment.Result) {
				c.now, c.sink = r.Kernel.Now, r.Collector
				r.Medium.SetSink(c)
				r.Medium.SetTap(c.tap)
			},
			func(r *experiment.Result) { events, depthSum = stepToCompletion(r) })
	})
	if traced.err != nil {
		return m, fmt.Errorf("traced run: %w", traced.err)
	}
	if traced.digest != base.digest {
		return m, fmt.Errorf("traced digest %s differs from untraced %s", traced.digest, base.digest)
	}
	m["trace.overhead_ratio"] = traced.wallS / base.wallS
	s := res.Setup
	stop := res.CompletionTime
	if !res.Completed {
		stop = s.Limit
	}
	snap := res.Collector.Snapshot(stop)
	liveDeliveries := res.Medium.Deliveries()
	liveMoves := res.Medium.Geometry().Moves()
	nodes := len(res.Network.Nodes)
	res = nil
	runtime.GC()

	wall := base.wallS
	if engineEvents > 0 {
		m["sim.events"] = float64(engineEvents)
	} else {
		m["sim.events"] = float64(events)
	}
	m["sim.events_per_s"] = m["sim.events"] / ref.wallS
	d := tr.in("sim.replay", func() { replaySim(seed, events, depthSum/max(events, 1)) })
	m["sim.ns_per_event"] = d * 1e9 / float64(max(events, 1))
	m["sim.share"] = m["sim.events"] * m["sim.ns_per_event"] / 1e9 / ref.wallS

	kinds := c.counts()
	m["radio.tx_frames"] = float64(kinds[callFrameSent])
	m["radio.deliveries"] = float64(kinds[callFrameReceived])
	m["radio.collisions"] = float64(kinds[callFrameCollided])
	if d := m["radio.deliveries"] + m["radio.collisions"]; d > 0 {
		m["radio.useful_ratio"] = m["radio.deliveries"] / d
	}
	if uint64(m["radio.deliveries"]) != liveDeliveries {
		return m, fmt.Errorf("tee sink saw %v deliveries, the medium counted %d", m["radio.deliveries"], liveDeliveries)
	}
	var rr radioReplay
	var err error
	d = tr.in("radio.replay", func() { rr, err = replayRadio(s, c, stop, tr) })
	if err != nil {
		return m, err
	}
	m["radio.replay_s"] = d
	m["radio.ns_per_tx"] = m["radio.replay_s"] * 1e9 / max(m["radio.tx_frames"], 1)
	m["radio.share"] = m["radio.replay_s"] / wall
	drift := float64(rr.refused)
	if live := float64(liveDeliveries); live > 0 {
		d := float64(rr.deliveries) - live
		if d < 0 {
			d = -d
		}
		drift = (d + float64(rr.refused)) / live
	}
	m["radio.replay_drift"] = drift
	if drift > 0.01 {
		return m, fmt.Errorf("radio replay drifted %.4f from the live run (%d deliveries against %d, %d transmissions refused)",
			drift, rr.deliveries, liveDeliveries, rr.refused)
	}
	if rr.moves != liveMoves {
		return m, fmt.Errorf("radio replay applied %d moves, the live run %d", rr.moves, liveMoves)
	}

	var frames, bytes int
	d = tr.in("packet.replay", func() { frames, bytes, err = replayPacket(c) })
	if err != nil {
		return m, err
	}
	m["packet.frames"], m["packet.bytes"] = float64(frames), float64(bytes)
	m["packet.ns_per_frame"] = d * 1e9 / float64(max(frames, 1))
	m["packet.share"] = d / wall

	var col *metrics.Collector
	var fed int
	d = tr.in("metrics.replay", func() { col, fed, err = replayMetrics(s, c) })
	if err != nil {
		return m, err
	}
	m["metrics.observations"] = float64(fed)
	m["metrics.replay_s"] = d
	m["metrics.ns_per_obs"] = d * 1e9 / float64(max(fed, 1))
	m["metrics.share"] = d / wall
	var again metrics.Snapshot
	d = tr.in("metrics.snapshot", func() {
		again = col.Snapshot(stop)
		col.MeanActiveRadioTime(stop)
	})
	m["metrics.snapshot_s"] = d
	if again.Tx != snap.Tx || again.Rx != snap.Rx || again.Collisions != snap.Collisions || again.RadioOnTotal != snap.RadioOnTotal {
		return m, fmt.Errorf("replayed collector disagrees with the live one: tx %d/%d rx %d/%d collisions %d/%d",
			again.Tx, snap.Tx, again.Rx, snap.Rx, again.Collisions, snap.Collisions)
	}
	m["rlnc.decode_ops"] = float64(snap.DecodeOps)
	m["rlnc.decode_ops_per_delivery"] = float64(snap.DecodeOps) / max(m["radio.deliveries"], 1)

	var ops, opBytes int
	d = tr.in("eeprom.replay", func() { ops, opBytes, err = replayEEPROM(nodes, c) })
	if err != nil {
		return m, err
	}
	m["eeprom.ops"], m["eeprom.bytes"] = float64(ops), float64(opBytes)
	m["eeprom.replay_s"] = d
	m["eeprom.ns_per_op"] = d * 1e9 / float64(max(ops, 1))
	m["eeprom.share"] = d / wall

	var moves uint64
	d = tr.in("topology.replay", func() { moves, err = replayTopology(s, stop) })
	if err != nil {
		return m, err
	}
	if moves != liveMoves {
		return m, fmt.Errorf("topology replay applied %d moves, the live run %d", moves, liveMoves)
	}
	m["topology.moves"] = float64(liveMoves)
	if moves > 0 {
		m["topology.move_s"] = d
		m["topology.ns_per_move"] = d * 1e9 / float64(moves)
		m["topology.share"] = d / wall
	}

	// What the replays do not account for is the protocol handlers and
	// the node runtime around them: a residual, not a measurement.
	m["protocol.self_s"] = wall - m["radio.replay_s"] - m["metrics.replay_s"] - m["eeprom.replay_s"] - m["topology.move_s"]
	m["protocol.share"] = m["protocol.self_s"] / wall
	m["protocol.ns_per_delivery"] = m["protocol.self_s"] * 1e9 / max(m["radio.deliveries"], 1)

	if w.telemetry {
		if err := traceTelemetry(setup, base, tr, m); err != nil {
			return m, err
		}
	}
	return m, nil
}

// stepToCompletion is Network.RunUntilComplete with the kernel stepped
// from outside, so events can be counted and the queue depth sampled.
func stepToCompletion(r *experiment.Result) (events, depthSum int) {
	r.Network.Start()
	k := r.Kernel
	done := r.Network.AllCompleted()
	for !done {
		next, ok := k.NextEventAt()
		if !ok || next > r.Setup.Limit || !k.Step() {
			break
		}
		events++
		depthSum += k.Pending()
		done = r.Network.AllCompleted()
	}
	r.Completed = done
	r.CompletionTime = r.Network.CompletionTime()
	return events, depthSum
}

// cacheStats sums the link-row cache counters over a run's media.
func cacheStats(r *experiment.Result) (hits, misses, invalidations uint64) {
	if r.Engine == nil {
		hits, misses, invalidations, _ = r.Medium.CacheStats()
		return
	}
	for _, sh := range r.Engine.Shards() {
		h, mi, inv, _ := sh.Medium.CacheStats()
		hits, misses, invalidations = hits+h, misses+mi, invalidations+inv
	}
	return
}

// traceEngine records the engine's counters from the reference run and
// runs the workload again on one worker. It returns the engine's event
// count and the one-worker wall time, which the caller sets against the
// sequential twin's.
func traceEngine(w workload, seed int64, ref op, refRes *experiment.Result, tr *tracer, m layerMetrics) (events int, oneWorkerS float64, err error) {
	st := refRes.Engine.Stats()
	m["engine.windows"] = float64(st.Windows)
	m["engine.ghosts_exported"] = float64(st.GhostsExported)
	m["engine.ghosts_offered"] = float64(st.GhostsOffered)
	m["engine.migrations"] = float64(st.Migrations)
	var waitNs int64
	for _, lr := range refRes.Loads {
		for _, sl := range lr.Shards {
			events += int(sl.Events)
			waitNs += sl.WaitNs
		}
	}
	m["engine.barrier_wait_s"] = float64(waitNs) / 1e9
	m["engine.imbalance"] = metrics.SummarizeLoads(refRes.LoadMatrix()).Mean

	var one op
	tr.in("engine.one_worker", func() { one, _ = runSim(w.setup(seed, 1), w.windowed, nil, nil) })
	if one.err != nil {
		return 0, 0, fmt.Errorf("one-worker run: %w", one.err)
	}
	if one.digest != ref.digest {
		return 0, 0, fmt.Errorf("one-worker digest %s differs from the reference %s", one.digest, ref.digest)
	}
	m["engine.parallel_ratio"] = ref.wallS / one.wallS
	return events, one.wallS, nil
}

// measureBuild times one Build alone and sizes what it leaves on the
// heap, and times the spatial index on its own.
func measureBuild(s experiment.Setup, tr *tracer, m layerMetrics) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var res *experiment.Result
	var err error
	d := tr.in("experiment.build", func() { res, err = experiment.Build(s) })
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(len(res.Network.Nodes))
	runtime.KeepAlive(res)
	m["experiment.build_s"] = d
	m["experiment.bytes_per_node"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	m["experiment.build_allocs_per_node"] = float64(after.Mallocs-before.Mallocs) / n

	layout, err := freshLayout(res.Setup)
	if err != nil {
		return err
	}
	d = tr.in("topology.index_build", func() { _, err = radio.NewGeometry(layout, radio.DefaultParams(), res.Setup.Seed+1) })
	m["topology.index_build_s"] = d
	return err
}

// traceTelemetry prices the telemetry stream: the same run with a
// recorder writing to io.Discard, against the run without.
func traceTelemetry(s experiment.Setup, base op, tr *tracer, m layerMetrics) error {
	stream := telemetry.NewStream(io.Discard)
	var clock func() time.Duration
	rec, err := telemetry.NewRecorder(stream, func() time.Duration {
		if clock == nil {
			return 0
		}
		return clock()
	})
	if err != nil {
		return err
	}
	s.Telemetry = rec
	var on op
	tr.in("telemetry.on", func() {
		on, _ = runSim(s, false, func(r *experiment.Result) { clock = r.Now }, nil)
	})
	if on.err != nil {
		return fmt.Errorf("telemetry run: %w", on.err)
	}
	if on.digest != base.digest {
		return fmt.Errorf("telemetry changed the run: digest %s against %s", on.digest, base.digest)
	}
	if err := stream.Err(); err != nil {
		return err
	}
	m["telemetry.overhead_ratio"] = on.wallS / base.wallS
	m["telemetry.records"] = float64(stream.Lines())
	m["telemetry.ns_per_record"] = (on.wallS - base.wallS) * 1e9 / float64(max(stream.Lines(), 1))
	return nil
}

// traceCampaign is the traced pass of the campaign workload: the plan
// through the runner for reference, then every cell alone.
func traceCampaign(w workload, seed int64, workers int, scratch string, tr *tracer, m layerMetrics) error {
	text := w.plan(seed)
	var ref op
	tr.in("reference", func() { ref, _ = runCampaign(text, workers, scratch) })
	if ref.err != nil {
		return fmt.Errorf("reference run: %w", ref.err)
	}
	m["runtime.gc_cycles"] = float64(ref.gcs)
	m["runtime.gc_pause_ms"] = ref.gcPause.Seconds() * 1e3
	m["sim.speed"] = ref.sim.completionS * float64(ref.attempted) / ref.wallS
	m["campaign.cells"] = float64(ref.sim.cellsExecuted)
	m["campaign.cells_per_s"] = float64(ref.sim.cellsExecuted) / ref.wallS

	tr.begin("traced")
	var plan *campaign.Plan
	var cells []campaign.Cell
	var err error
	d := tr.in("campaign.expand", func() { plan, cells, err = expandPlan(text) })
	if err != nil {
		tr.end()
		return err
	}
	m["campaign.expand_s"] = d
	results := make([]campaign.CellResult, len(cells))
	times := make([]float64, len(cells))
	var sum float64
	for i, c := range cells {
		times[i] = tr.in("campaign.cell", func() { results[i] = campaign.RunCell(c) })
		sum += times[i]
	}
	var report string
	d = tr.in("campaign.report", func() { report = campaign.Report(plan, results) })
	m["campaign.report_s"] = d
	tracedS := tr.total(tr.end())

	digest := sha256.Sum256([]byte(report))
	if hex.EncodeToString(digest[:]) != ref.digest {
		return fmt.Errorf("report of cells run one at a time differs from the runner's report.txt")
	}
	sort.Float64s(times)
	m["campaign.cell_p50_ms"] = times[len(times)/2] * 1e3
	m["campaign.cell_max_ms"] = times[len(times)-1] * 1e3
	m["campaign.pool_efficiency"] = sum / (float64(workers) * ref.wallS)
	// The traced pass runs the cells on one worker, so this ratio also
	// carries the pool's speed-up, not only the cost of the spans.
	m["trace.overhead_ratio"] = tracedS / ref.wallS
	return nil
}

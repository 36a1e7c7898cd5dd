// Package engine runs a deployment that experiment.Build cut into
// several tiles. Each tile owns a kernel, a radio shard over the shared
// channel geometry, and its nodes; the engine advances the tiles in
// conservative lockstep windows over the same node, radio, and kernel
// code a one-tile deployment runs on its single kernel with no engine
// at all. TilePartition cuts the tiles (contiguous strips are its 1×K
// or K×1 grid, see StripGrid), and logical executors advance them on a
// tile→executor→worker mapping fixed when New builds the engine.
//
// The window length is the minimum cross-tile interaction latency: the
// airtime of the smallest possible frame. A frame transmitted in one
// window cannot end, and therefore cannot be delivered or finish
// corrupting anyone, before the next barrier; so tiles run a window
// completely independently and exchange the boundary-crossing frames
// (radio.Ghost records) at the barrier. Outboxes are merged by
// (start, source, sequence) — a pure function of simulation state —
// never by goroutine arrival order, which is what makes an engine run a
// deterministic function of (seed, tile grid) even under -race.
//
// What tiling approximates (documented in DESIGN.md §4f): carrier
// sense and collisions across a tile boundary take effect at the next
// barrier rather than instantly (at most one window late, the window
// being one minimal frame airtime), and per-delivery random draws come
// from the owning tile's RNG stream rather than the single global one,
// so an engine run is statistically — not bitwise — equivalent to the
// one-tile run of the same seed.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
)

// Shard is one partition cell of the deployment — since PR 7 a *tile*:
// a kernel, a radio shard over the shared geometry, and the IDs of the
// nodes it owns. All simulation state lives in the tile; the executors
// that advance tiles each window carry none, so results do not depend
// on which executor advances a tile.
type Shard struct {
	Kernel *sim.Kernel
	Medium *radio.Medium
	Owned  []packet.NodeID
	// Bounds, when non-nil, is the bounding box around the owned
	// nodes' positions. The engine uses it to skip offering a ghost
	// frame to a tile entirely out of the sender's radio range — safe
	// because every potential receiver in the tile lies inside the box.
	// Nil disables the prefilter (the ghost is offered everywhere).
	Bounds *Rect
}

// Config parameterizes the sharded engine.
type Config struct {
	// Window is the lockstep window length; use ConservativeWindow.
	// It must not exceed the minimum frame airtime or cross-shard
	// frames could be due before the barrier that carries them.
	Window time.Duration
	// Workers bounds the goroutines that advance tiles, the caller of
	// RunUntil included: the engine uses min(Workers, executors,
	// GOMAXPROCS) of them, each owning a fixed block of executors, and
	// starts one fewer than that. 1 (or anything that resolves to 1)
	// runs every tile inline on the calling goroutine; 0 means
	// GOMAXPROCS. Results never depend on it.
	Workers int
	// Shards is the number of logical executors the tiles are assigned
	// to. 0 defaults to one executor per tile (the PR 4 strip engine's
	// shape). Executors are a scheduling concept only: results are
	// independent of the executor count and of the tile→executor
	// assignment, which New fixes as contiguous tile blocks.
	Shards int
	// OnLoad, when non-nil, receives a load report every loadEvery
	// windows. Reports include wall-clock barrier wait per executor.
	OnLoad func(LoadReport)
}

// loadEvery is the load report period in windows.
const loadEvery = 32

// ShardLoad is one executor's share of a load report period.
type ShardLoad struct {
	Shard     int   // executor index
	Tiles     int   // tiles assigned to it
	Events    int64 // kernel events executed this period (deterministic)
	Delivered int64 // frames delivered to its nodes this period (deterministic)
	WaitNs    int64 // wall-clock time spent waiting at barriers (diagnostic only)
}

// LoadReport is the per-period load summary handed to Config.OnLoad.
type LoadReport struct {
	Window  int           // windows completed at the end of the period
	Barrier time.Duration // simulated time of the closing barrier
	Shards  []ShardLoad   // one entry per executor
}

// Stats are cumulative engine counters. Every field is deterministic:
// equal for equal (seed, tile grid, executor count), independent of
// worker count.
type Stats struct {
	Windows        int64 // lockstep windows executed (idle skips excluded)
	GhostsExported int64 // boundary frames drained from tile outboxes
	GhostsOffered  int64 // ghost insertions attempted after bounds routing
	// Migrations is always 0 — tiles never move between executors —
	// and stays only because bench/traced.go reads it.
	Migrations int64
}

// ConservativeWindow returns the largest safe lockstep window for a
// channel: the airtime of a minimum-size frame, the soonest any
// transmission can complete and so the soonest one shard's frame can
// affect another shard's state.
func ConservativeWindow(geo *radio.Geometry) time.Duration {
	return geo.Airtime(packet.FrameOverhead)
}

type globalEvent struct {
	at  time.Duration
	seq int
	fn  func()
}

// Engine drives a set of tiles in lockstep windows, scheduled onto a
// fixed number of logical executors.
type Engine struct {
	shards []*Shard // the tiles; "shard" kept for API continuity
	window time.Duration

	barrier time.Duration // time of the last completed barrier
	globals []globalEvent // pending, sorted by (at, seq)
	gseq    int

	obs     node.Observer // replayed global observer, nil when unused
	tap     radio.Tap     // replayed global transmission tap
	buffers []*Buffer

	// replayNow is what Now returns: the current event's original time
	// while replaying buffered observations, the barrier otherwise.
	replayNow time.Duration

	// nExec logical executors advance the tiles; execOf gives a tile's.
	nExec  int
	onLoad func(LoadReport)

	// Per-tile event counts for the current load period, plus the
	// delivery counter watermark from the previous period.
	tileEvents    []int64
	lastDelivered []uint64
	execWaitNs    []int64 // per-executor barrier wait this period
	periodWindows int

	stats Stats

	// bar is the window barrier and the workers' tile lists; it has one
	// slot per worker, so a single slot is inline mode.
	bar *barrier

	routed []routedGhost // exchange scratch, reused across windows
}

// routedGhost is a drained boundary frame and the tile it came from.
type routedGhost struct {
	g    radio.Ghost
	from int
}

// New builds an engine over the given shards. Shards must own disjoint
// node sets covering the deployment; the caller (experiment.Build)
// constructs them from TilePartition.
func New(cfg Config, shards []*Shard) (*Engine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: no shards")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("engine: window %v must be positive", cfg.Window)
	}
	for i, sh := range shards {
		if sh == nil || sh.Kernel == nil || sh.Medium == nil {
			return nil, fmt.Errorf("engine: shard %d incomplete", i)
		}
	}
	nExec := cfg.Shards
	if nExec == 0 {
		nExec = len(shards)
	}
	if nExec < 1 || nExec > len(shards) {
		return nil, fmt.Errorf("engine: executor count %d outside [1, %d]", nExec, len(shards))
	}
	e := &Engine{
		shards:        shards,
		window:        cfg.Window,
		bar:           newBarrier(workerCount(cfg.Workers, nExec)),
		buffers:       make([]*Buffer, len(shards)),
		nExec:         nExec,
		onLoad:        cfg.OnLoad,
		tileEvents:    make([]int64, len(shards)),
		lastDelivered: make([]uint64, len(shards)),
		execWaitNs:    make([]int64, nExec),
	}
	for ti := range shards {
		s := &e.bar.slots[e.workerOf(e.execOf(ti))]
		s.tiles = append(s.tiles, ti)
	}
	for i := range e.buffers {
		e.buffers[i] = &Buffer{now: shards[i].Kernel.Now}
	}
	return e, nil
}

// Stats returns the engine's cumulative counters.
func (e *Engine) Stats() Stats { return e.stats }

// Executors returns the number of logical executors.
func (e *Engine) Executors() int { return e.nExec }

// execOf maps a tile to its executor: contiguous tile blocks, so with
// one tile per executor (the strip shape) it is the identity.
func (e *Engine) execOf(tile int) int { return tile * e.nExec / len(e.shards) }

// Shards returns the engine's shards (read-only; useful to tests and
// fault wiring).
func (e *Engine) Shards() []*Shard { return e.shards }

// Window returns the lockstep window length.
func (e *Engine) Window() time.Duration { return e.window }

// Now is the engine's observation clock: during barrier replay it reads
// the original time of the event being replayed, otherwise the current
// barrier. Wire it wherever a sequential run would use Kernel.Now for
// timestamping (telemetry, invariant checkers, trace logs).
func (e *Engine) Now() time.Duration { return e.replayNow }

// SetObserver installs the global observer fed by barrier replay. Per
// -shard observations are buffered with their original timestamps and
// replayed at each barrier in (time, node, sequence) order, so a
// single-instance observer (a trace log, a telemetry recorder, an
// invariant checker) sees one globally ordered stream exactly as it
// would in a sequential run.
func (e *Engine) SetObserver(obs node.Observer) { e.obs = obs }

// SetTap installs the global transmission tap, replayed like the
// observer stream (invariant checkers consume decoded packets).
func (e *Engine) SetTap(t radio.Tap) { e.tap = t }

// ShardObserver returns the buffering observer for shard i; experiment
// wiring appends it to the shard's observer chain when a global
// observer or tap is installed.
func (e *Engine) ShardObserver(i int) *Buffer { return e.buffers[i] }

// At schedules fn to run at the first barrier not earlier than t, with
// every shard quiesced and advanced to the barrier. Fault plans use it
// for whole-network actions (crashes, reboots, random kills): the
// callback may touch any shard's kernel, medium, or nodes. Quantizing
// to barriers delays an action by less than one window.
func (e *Engine) At(t time.Duration, fn func()) {
	ev := globalEvent{at: t, seq: e.gseq, fn: fn}
	e.gseq++
	i := sort.Search(len(e.globals), func(i int) bool {
		g := e.globals[i]
		return g.at > ev.at || (g.at == ev.at && g.seq > ev.seq)
	})
	e.globals = append(e.globals, globalEvent{})
	copy(e.globals[i+1:], e.globals[i:])
	e.globals[i] = ev
}

// RunUntil advances the simulation window by window until pred returns
// true or simulated time passes limit; it reports whether pred was
// satisfied. pred runs at barriers with all shards quiesced. Completion
// is detected up to one window later than in a sequential run, but
// completion *times* are exact (nodes record them on their own shard
// clocks).
func (e *Engine) RunUntil(pred func() bool, limit time.Duration) bool {
	stop := e.startWorkers()
	defer stop()
	// Observations from before the run (node Start at time zero) are
	// already buffered; replay them so pred and observers start from a
	// consistent view.
	e.replayBuffers()
	if pred() {
		return true
	}
	for e.barrier <= limit {
		e.runGlobals()
		if e.runWindow(pred, limit) {
			return true
		}
		if !e.skipIdle(limit) {
			return false // every queue drained; nothing can ever happen
		}
	}
	return false
}

// runWindow executes one lockstep window and reports whether pred is
// satisfied at its barrier.
func (e *Engine) runWindow(pred func() bool, limit time.Duration) bool {
	next := e.barrier + e.window
	if next > limit {
		// Final, clamped window: run events at limit exactly, to
		// match the sequential kernel's inclusive limit.
		next = limit + 1
	}
	e.runRound(next)
	e.exchange()
	e.barrier = next
	e.endWindow()
	e.replayBuffers()
	return pred()
}

// runGlobals executes every pending global event due at or before the
// current barrier, in (time, sequence) order, with every shard clock
// advanced to the barrier so callbacks observe a consistent "now".
func (e *Engine) runGlobals() {
	if len(e.globals) == 0 || e.globals[0].at > e.barrier {
		return
	}
	for _, sh := range e.shards {
		sh.Kernel.AdvanceTo(e.barrier)
	}
	for len(e.globals) > 0 && e.globals[0].at <= e.barrier {
		ev := e.globals[0]
		e.globals = e.globals[1:]
		ev.fn()
	}
}

// exchange moves boundary-crossing frames between tiles: every
// non-empty outbox (the workers' slot summaries name them) is drained,
// the union is ordered by (start, source, sequence) — a total order,
// so the drain order is immaterial — and each ghost is offered to every
// other tile whose bounding box lies within the sender's radio range
// (the medium then ignores ghosts inaudible to its nodes). Insertion
// order is a pure function of simulation state, so two runs — or the
// same run with a different worker count or executor count — exchange
// identically. The bounds prefilter is exact-safe:
// Rect.Distance lower-bounds the sender's distance to every node in the
// tile, and an insertion it skips would have been a no-op (no audible
// receivers).
func (e *Engine) exchange() {
	all := e.routed[:0]
	for w := range e.bar.slots {
		for _, ti := range e.bar.slots[w].ghosts {
			for _, g := range e.shards[ti].Medium.TakeOutbox() {
				all = append(all, routedGhost{g: g, from: ti})
			}
		}
	}
	e.routed = all
	if len(all) == 0 {
		return
	}
	e.stats.GhostsExported += int64(len(all))
	slices.SortFunc(all, func(a, b routedGhost) int {
		return cmp.Or(
			cmp.Compare(a.g.Start, b.g.Start),
			cmp.Compare(a.g.Src, b.g.Src),
			cmp.Compare(a.g.Seq, b.g.Seq),
		)
	})
	for i := range all {
		r := &all[i]
		for j, sh := range e.shards {
			if j == r.from {
				continue
			}
			if sh.Bounds != nil && r.g.RangeFt > 0 &&
				sh.Bounds.Distance(r.g.X, r.g.Y) > r.g.RangeFt {
				continue
			}
			e.stats.GhostsOffered++
			if err := sh.Medium.InsertGhost(r.g); err != nil {
				panic(fmt.Sprintf("engine: ghost exchange: %v", err))
			}
		}
	}
}

// endWindow closes a lockstep window: counts it, and at the end of
// each report period gathers per-executor loads and emits the load
// report.
func (e *Engine) endWindow() {
	e.stats.Windows++
	if e.onLoad == nil {
		return
	}
	e.periodWindows++
	if e.periodWindows < loadEvery {
		return
	}
	loads := make([]ShardLoad, e.nExec)
	for x := range loads {
		loads[x].Shard = x
		loads[x].WaitNs = e.execWaitNs[x]
	}
	for ti, sh := range e.shards {
		d := sh.Medium.Deliveries()
		l := &loads[e.execOf(ti)]
		l.Tiles++
		l.Events += e.tileEvents[ti]
		l.Delivered += int64(d - e.lastDelivered[ti])
		e.lastDelivered[ti] = d
	}
	e.onLoad(LoadReport{
		Window:  int(e.stats.Windows),
		Barrier: e.barrier,
		Shards:  loads,
	})
	for ti := range e.tileEvents {
		e.tileEvents[ti] = 0
	}
	for x := range e.execWaitNs {
		e.execWaitNs[x] = 0
	}
	e.periodWindows = 0
}

// skipIdle fast-forwards over empty windows: when the earliest pending
// event (any shard's queue, or a global) is more than a window away,
// the intervening barriers are no-ops — no frames can be in flight
// (their finish events would be pending) — so the barrier jumps to the
// window containing that event. Returns false when nothing is pending
// anywhere, i.e. the simulation is over.
func (e *Engine) skipIdle(limit time.Duration) bool {
	// The workers' summaries date from the end of the round; the
	// barrier since then only adds events (ghost insertions), never
	// removes one, so work they show within a window is still the
	// verdict and no tile needs touching.
	for w := range e.bar.slots {
		if at := e.bar.slots[w].nextAt; at >= 0 && at-e.barrier <= e.window {
			return true
		}
	}
	earliest := time.Duration(-1)
	for _, sh := range e.shards {
		if at, ok := sh.Kernel.NextEventAt(); ok && (earliest < 0 || at < earliest) {
			earliest = at
		}
	}
	if len(e.globals) > 0 && (earliest < 0 || e.globals[0].at < earliest) {
		earliest = e.globals[0].at
	}
	if earliest < 0 {
		return false
	}
	if gap := earliest - e.barrier; gap > e.window {
		e.barrier += e.window * (gap / e.window)
	}
	return true
}

// replayBuffers merges every shard's buffered observations by
// (time, node, local sequence) and replays them into the global
// observer and tap, substituting each event's original time into the
// engine clock. With no global observer installed the buffers stay
// empty and this is free.
func (e *Engine) replayBuffers() {
	defer func() { e.replayNow = e.barrier }()
	if e.obs == nil && e.tap == nil {
		return
	}
	cursors := make([]int, len(e.buffers))
	for {
		best := -1
		for s, b := range e.buffers {
			if cursors[s] >= len(b.recs) {
				continue
			}
			if best < 0 || b.recs[cursors[s]].less(&e.buffers[best].recs[cursors[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		rec := &e.buffers[best].recs[cursors[best]]
		cursors[best]++
		e.replayNow = rec.at
		rec.deliver(e.obs, e.tap)
	}
	for _, b := range e.buffers {
		b.recs = b.recs[:0]
	}
}

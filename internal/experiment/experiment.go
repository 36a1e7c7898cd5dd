// Package experiment assembles full simulated deployments — topology,
// channel, protocol fleet, metrics — and reproduces the paper's
// evaluation artifacts: each table and figure has a Spec that runs the
// corresponding workload and renders the same rows or series the paper
// reports.
package experiment

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	// MNP (core) is imported after the baselines: import order sets the
	// linker's code layout, and the benchmark's wall times move with it.
	"mnp/internal/deluge"
	"mnp/internal/gossip"
	"mnp/internal/moap"
	"mnp/internal/rlnc"
	"mnp/internal/xnp"

	"mnp/internal/core"

	"mnp/internal/eeprom"
	"mnp/internal/engine"
	"mnp/internal/faults"
	"mnp/internal/image"
	"mnp/internal/invariant"
	"mnp/internal/metrics"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/telemetry"
	"mnp/internal/topology"
)

// ProtocolKind names the dissemination protocol under test: a key of
// the protocols table, matched case-insensitively. "" means MNP.
type ProtocolKind string

// The protocols this module implements, one row each in protocols.
const (
	ProtocolMNP    ProtocolKind = "mnp"
	ProtocolDeluge ProtocolKind = "deluge"
	ProtocolMOAP   ProtocolKind = "moap"
	ProtocolXNP    ProtocolKind = "xnp"
	ProtocolRLNC   ProtocolKind = "rlnc"
	ProtocolGossip ProtocolKind = "gossip"
)

// protocol is one row of the protocols table: the name reports print,
// how the protocol lays an image out in flash, and the constructor of
// one mote's instance. base is the image at the base station and nil
// at every other mote; only MNP reads v.
type protocol struct {
	display  string
	geometry func(*image.Image) image.Geometry
	build    func(base *image.Image, v core.Variant) node.Protocol
}

// protocols is the one list of protocols: Setup, scenario files,
// campaign plans and mnpsim's -protocol accept exactly its keys.
var protocols = map[ProtocolKind]protocol{
	ProtocolMNP: {"MNP", (*image.Image).Geometry, func(base *image.Image, v core.Variant) node.Protocol {
		return core.New(core.Config{Base: base != nil, Image: base, Variant: v})
	}},
	ProtocolDeluge: {"Deluge", deluge.Geometry, func(base *image.Image, _ core.Variant) node.Protocol {
		return deluge.New(deluge.Config{Base: base != nil, Image: base})
	}},
	ProtocolMOAP: {"MOAP", moap.Geometry, func(base *image.Image, _ core.Variant) node.Protocol {
		return moap.New(moap.Config{Base: base != nil, Image: base})
	}},
	ProtocolXNP: {"XNP", xnp.Geometry, func(base *image.Image, _ core.Variant) node.Protocol {
		return xnp.New(xnp.Config{Base: base != nil, Image: base})
	}},
	ProtocolRLNC: {"RLNC", (*image.Image).Geometry, func(base *image.Image, _ core.Variant) node.Protocol {
		return rlnc.New(rlnc.Config{Base: base != nil, Image: base})
	}},
	ProtocolGossip: {"Gossip", (*image.Image).Geometry, func(base *image.Image, _ core.Variant) node.Protocol {
		return gossip.New(gossip.Config{Base: base != nil, Image: base})
	}},
}

// ProtocolNames lists the protocols in sorted order.
func ProtocolNames() []string {
	out := make([]string, 0, len(protocols))
	for p := range protocols {
		out = append(out, string(p))
	}
	sort.Strings(out)
	return out
}

// ParseProtocol reads a protocol name the one way Setup, scenario
// files and campaign plans take it: lower-cased, not trimmed, and one
// of ProtocolNames.
func ParseProtocol(name string) (ProtocolKind, error) {
	p := ProtocolKind(strings.ToLower(name))
	if _, ok := protocols[p]; !ok {
		return "", fmt.Errorf("unknown protocol %q (have %s)", name, strings.Join(ProtocolNames(), ", "))
	}
	return p, nil
}

// String returns the protocol's display name ("MNP", "Deluge"); a
// name outside the table prints as itself.
func (p ProtocolKind) String() string {
	if r, ok := protocols[ProtocolKind(strings.ToLower(string(p)))]; ok {
		return r.display
	}
	return string(p)
}

// Setup describes one simulated deployment.
type Setup struct {
	// Name labels reports.
	Name string
	// Rows and Cols define the grid; Spacing is in feet.
	Rows, Cols int
	Spacing    float64
	// Layout, when non-nil, overrides the grid entirely (e.g. a random
	// placement from topology.ConnectedRandom).
	Layout *topology.Layout
	// ImagePackets is the program size in 22-byte packets (e.g. 100
	// for the testbed experiments, 640 for 5 segments). The image is
	// segmented into 128-packet segments.
	ImagePackets int
	// ImageData, when non-nil, disseminates exactly these bytes
	// instead of a random image of ImagePackets packets (e.g. an
	// imgdiff patch).
	ImageData []byte
	// Protocol selects the dissemination protocol (default MNP).
	Protocol ProtocolKind
	// Variant turns MNP's evaluation switches (ablations A1–A3,
	// extensions A4–A5); the zero value is the paper's protocol. It is
	// set from Go (the mnpexp A1–A5 specs, examples); scenario files do
	// not reach it, and every other protocol rejects a non-zero one.
	Variant core.Variant
	// BaseID places the base station (default node 0, a grid corner).
	// The paper's scaling argument puts it at the center of a 4x
	// larger network.
	BaseID packet.NodeID
	// Power is the TinyOS transmit power level (default PowerSim).
	Power int
	// Seed drives every random choice in the run.
	Seed int64
	// Radio overrides the channel model when non-nil.
	Radio *radio.Params
	// Battery assigns initial battery fractions (default 1.0).
	Battery func(id packet.NodeID) float64
	// Limit bounds the simulated time (default 12 h).
	Limit time.Duration
	// Observer, when non-nil, receives node observations alongside the
	// metrics collector (e.g. a trace.Log).
	Observer node.Observer
	// Faults, when non-nil, is a fault plan scheduled onto the
	// deployment before the run starts (crashes, reboots, partitions,
	// EEPROM errors). Plans are seeded from Seed and fully reproducible.
	Faults *faults.Plan
	// Mobility, when non-nil, builds the run's mobility model over the
	// final layout (after grid construction); nil keeps the deployment
	// static and every existing golden hash byte-identical. The factory
	// receives the run seed so scenario files can defer seeding. Moves
	// are applied at MobilityEvery boundaries — on several tiles that
	// means engine barriers, with workers parked, so tiled results stay
	// a pure function of (Seed, tile grid).
	Mobility func(l *topology.Layout, seed int64) (topology.Mobility, error)
	// MobilityEvery is the position-update quantum (default 10s when
	// Mobility is set). Finer steps cost more cache invalidations;
	// coarser ones make motion visibly stepwise to the protocols.
	MobilityEvery time.Duration
	// Invariants attaches the online protocol-invariant checker to the
	// run (Result.Invariants; Result.VerifyInvariants reports it). Build
	// wires its clock, neighborhood, airtime and, with Telemetry set,
	// its violation stream.
	Invariants bool
	// Telemetry, when non-nil, streams the run as NDJSON: a meta record,
	// the fault plan, every observation, every invariant violation, and
	// a final counters summary. Nil (the default) leaves the run
	// byte-identical to an uninstrumented one.
	Telemetry *telemetry.Recorder
	// Shards, with no tile grid set, cuts the deployment into that many
	// contiguous strips (engine.StripGrid: a 1×Shards tile grid, or
	// Shards×1 for a layout strictly taller than wide) run in
	// conservative lockstep by internal/engine, one executor per strip.
	// 0 means 1 (one executor per tile with a tile grid), and 1 is a
	// single tile: the classic simulator on one kernel, no engine,
	// byte-identical to earlier releases. Several
	// tiles are a deterministic function of (Seed, tile grid) but not
	// bitwise identical to one — see DESIGN.md §4f.
	Shards int
	// Workers bounds the goroutines the engine advances tiles on, the
	// one calling Run included: it uses min(Workers, Shards,
	// GOMAXPROCS), and 1 runs everything inline on the caller. 0 means
	// GOMAXPROCS; negative is rejected. Results are identical at every
	// setting. Ignored on a single tile.
	Workers int
	// TileRows and TileCols partition the deployment into a 2D tile
	// grid run by the lockstep engine, with Shards logical executors
	// (default one per tile) advancing the tiles. Results are a pure function of
	// (Seed, tile grid) — independent of Shards and Workers. Both zero
	// (the default) means Shards strips. A 1×1 grid is a single tile,
	// exactly as Shards = 1.
	TileRows, TileCols int
}

// ParseTileSpec parses a CLI tile-grid argument: "" (no tiling) or
// "RxC" (e.g. "4x4"), as mnpsim's -tiles flag takes it.
func ParseTileSpec(spec string) (rows, cols int, err error) {
	spec = strings.TrimSpace(strings.ToLower(spec))
	if spec == "" {
		return 0, 0, nil
	}
	r, c, ok := strings.Cut(spec, "x")
	if ok {
		rows, err = strconv.Atoi(strings.TrimSpace(r))
		if err == nil {
			cols, err = strconv.Atoi(strings.TrimSpace(c))
		}
		if err == nil && rows > 0 && cols > 0 {
			return rows, cols, nil
		}
	}
	return 0, 0, fmt.Errorf(`tile grid %q: want "RxC" (e.g. 4x4)`, spec)
}

func (s Setup) withDefaults() Setup {
	if s.Spacing == 0 {
		s.Spacing = 10
	}
	if s.ImagePackets == 0 {
		s.ImagePackets = image.DefaultSegmentPackets
	}
	s.Protocol = ProtocolKind(strings.ToLower(string(s.Protocol)))
	if s.Protocol == "" {
		s.Protocol = ProtocolMNP
	}
	if s.Power == 0 {
		s.Power = radio.PowerSim
	}
	if s.Limit == 0 {
		s.Limit = 12 * time.Hour
	}
	if s.Shards == 0 && s.TileRows*s.TileCols == 0 {
		s.Shards = 1
	}
	if s.Mobility != nil && s.MobilityEvery == 0 {
		s.MobilityEvery = 10 * time.Second
	}
	return s
}

// maxImagePackets is the most packets the one-byte segment ID space
// numbers: 255 segments. The base's flash holds fewer, 23 831 packets
// of 22 bytes, which validate checks on its own.
const maxImagePackets = 255 * image.DefaultSegmentPackets

// validate rejects malformed deployment descriptions with descriptive
// errors before Build constructs anything. Build calls it after
// withDefaults, so it rejects a zero Spacing or Shards that Build
// would have defaulted.
func (s Setup) validate() error {
	n := 0
	if s.Layout != nil {
		n = s.Layout.N()
	} else {
		if s.Rows <= 0 || s.Cols <= 0 {
			return fmt.Errorf("experiment %s: grid %dx%d is invalid: rows and cols must be positive", s.Name, s.Rows, s.Cols)
		}
		if !(s.Spacing > 0) || math.IsInf(s.Spacing, 0) {
			return fmt.Errorf("experiment %s: spacing %g ft must be positive and finite", s.Name, s.Spacing)
		}
		n = s.Rows * s.Cols
	}
	if n == 0 {
		return fmt.Errorf("experiment %s: layout has no nodes", s.Name)
	}
	if int(s.BaseID) >= n {
		return fmt.Errorf("experiment %s: base %v outside the %d-node layout", s.Name, s.BaseID, n)
	}
	if s.Shards < 0 || s.Shards == 0 && s.TileRows*s.TileCols == 0 {
		return fmt.Errorf("experiment %s: shard count %d must be at least 1 (0 only with a tile grid: one executor per tile)", s.Name, s.Shards)
	}
	if s.Shards > n {
		return fmt.Errorf("experiment %s: %d shards exceed the %d-node deployment", s.Name, s.Shards, n)
	}
	if s.Workers < 0 {
		return fmt.Errorf("experiment %s: worker count %d is negative (0 means GOMAXPROCS)", s.Name, s.Workers)
	}
	if s.TileRows < 0 || s.TileCols < 0 {
		return fmt.Errorf("experiment %s: tile grid %dx%d is invalid: rows and cols must be non-negative", s.Name, s.TileRows, s.TileCols)
	}
	if (s.TileRows > 0) != (s.TileCols > 0) {
		return fmt.Errorf("experiment %s: tile grid %dx%d is invalid: set both rows and cols (or neither)", s.Name, s.TileRows, s.TileCols)
	}
	if tiles := s.TileRows * s.TileCols; tiles > 0 {
		if tiles > n {
			return fmt.Errorf("experiment %s: %dx%d tile grid has %d tiles for the %d-node deployment", s.Name, s.TileRows, s.TileCols, tiles, n)
		}
		if s.Shards > tiles {
			return fmt.Errorf("experiment %s: %d executors exceed the %d-tile grid", s.Name, s.Shards, tiles)
		}
	}
	if s.ImagePackets < 0 {
		return fmt.Errorf("experiment %s: image size %d packets is negative", s.Name, s.ImagePackets)
	}
	// Checked here because Build allocates the random image before
	// image.New could refuse it.
	if s.ImageData == nil && s.ImagePackets > maxImagePackets {
		return fmt.Errorf("experiment %s: image size %d packets exceeds %d (255 segments)", s.Name, s.ImagePackets, maxImagePackets)
	}
	size := len(s.ImageData)
	if s.ImageData == nil {
		size = s.ImagePackets * image.DefaultPayloadSize
	}
	if size > eeprom.DefaultCapacity {
		return fmt.Errorf("experiment %s: image of %d bytes exceeds the base's %d-byte flash", s.Name, size, eeprom.DefaultCapacity)
	}
	if s.MobilityEvery < 0 {
		return fmt.Errorf("experiment %s: mobility step %v is negative", s.Name, s.MobilityEvery)
	}
	if s.MobilityEvery > 0 && s.Mobility == nil {
		return fmt.Errorf("experiment %s: mobility step set but no mobility model", s.Name)
	}
	if s.Limit < 0 {
		return fmt.Errorf("experiment %s: time limit %v is negative", s.Name, s.Limit)
	}
	// An unset protocol is MNP (withDefaults).
	if s.Protocol != "" {
		p, err := ParseProtocol(string(s.Protocol))
		if err != nil {
			return fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		if p != ProtocolMNP && s.Variant != (core.Variant{}) {
			return fmt.Errorf("experiment %s: %v takes no MNP variant, got %+v", s.Name, p, s.Variant)
		}
	}
	return nil
}

// Result is a completed run plus everything needed to render reports.
type Result struct {
	Setup     Setup
	Layout    *topology.Layout
	Medium    *radio.Medium
	Network   *node.Network
	Collector *metrics.Collector
	Image     *image.Image
	Kernel    *sim.Kernel

	// Engine drives a deployment of several tiles; nil on a single
	// tile. Kernel and Medium are nil when Engine is set — no single
	// pair exists — and Collector holds the deterministic cross-tile
	// merge, available once the run finishes.
	Engine *engine.Engine
	// TileGrid is the tile partition the engine ran over (strips report
	// their real orientation, 1×Shards or Shards×1); zero on a single
	// tile.
	TileGrid engine.Grid
	// Loads collects the engine's per-period load reports (one entry
	// per report period, each with per-executor event/delivery/wait
	// figures). Empty on a single tile.
	Loads []engine.LoadReport
	// Now is the run's observation clock: Kernel.Now on a single tile,
	// the engine's replay-aware clock otherwise. Build binds
	// Setup.Telemetry to it; bind other lazily-clocked observers (trace
	// logs) to it.
	Now func() time.Duration

	// Invariants is the attached checker, nil unless Setup.Invariants
	// is true.
	Invariants *invariant.Checker
	// geom is how the protocol lays Image out in flash.
	geom image.Geometry

	// Completed reports whether every node finished within Limit.
	Completed bool
	// CompletionTime is the instant the last node completed.
	CompletionTime time.Duration

	// tiles is the deployment as Build cut it; on several tiles
	// RunToCompletion merges tileCollectors by tileOf.
	tiles          []*engine.Shard
	tileCollectors []*metrics.Collector
	tileOf         []int
}

// Run executes the deployment until full coverage or the time limit.
func Run(s Setup) (*Result, error) {
	res, err := Build(s)
	if err != nil {
		return nil, err
	}
	if err := res.RunToCompletion(); err != nil {
		return nil, err
	}
	res.FinishTelemetry()
	return res, nil
}

// RunToCompletion starts every node, drives the simulation until full
// coverage or the time limit, and finalizes the result's merged
// collector. Callers needing to schedule instrumentation between Build
// and the run use it in place of driving res.Kernel by hand; single-tile
// results can still be driven manually. The two drivers stay distinct
// because they stop at different instants: the kernel tests the
// predicate after every event, the engine at window barriers. A
// protocol that cannot start (a base whose flash refuses its image)
// fails the run: its error is returned and nothing runs.
func (r *Result) RunToCompletion() error {
	if err := r.Network.Start(); err != nil {
		return fmt.Errorf("experiment %s: %w", r.Setup.Name, err)
	}
	if r.Engine != nil {
		r.Completed = r.Engine.RunUntil(r.Network.AllCompleted, r.Setup.Limit)
	} else {
		r.Completed = r.Kernel.RunUntil(r.Network.AllCompleted, r.Setup.Limit)
	}
	r.CompletionTime = r.Network.CompletionTime()
	r.finalizeShards()
	return nil
}

// Release hands on what the run owns for a later run to reuse, once it
// is over and its results are read: each tile's kernel and its
// medium's frame-success memo, and the network's generators, flash
// rows and carved chunks (Network.Release). Kernel and Medium are nil
// afterwards, and nothing of the run may be driven or read again but
// the fields already copied out. A second Release does nothing.
func (r *Result) Release() {
	if r.tiles == nil {
		return
	}
	r.Network.Release()
	for _, t := range r.tiles {
		t.Medium.Release()
		t.Kernel.Release()
	}
	r.tiles, r.Kernel, r.Medium = nil, nil, nil
}

// finalizeShards merges per-tile collectors into Result.Collector
// deterministically (per-node rows from the owning tile, summed
// timelines, (time, node)-merged sender logs). A no-op on a single
// tile, whose collector is already the result's.
func (r *Result) finalizeShards() {
	if r.Collector != nil {
		return
	}
	merged, err := metrics.MergeShards(r.tileCollectors, r.tileOf)
	if err != nil {
		// The collectors and owner map were built together in Build;
		// a mismatch is a harness bug, not a runtime condition.
		panic(fmt.Sprintf("experiment %s: merging shard collectors: %v", r.Setup.Name, err))
	}
	r.Collector = merged
}

// Counters builds the run's final counter registry: the metrics
// snapshot up to completion (or the limit), plus the engine's
// window/ghost totals on several tiles. The telemetry
// summary record and the CLIs' Prometheus dumps both come from
// here, so the two surfaces always agree.
func (r *Result) Counters() *telemetry.Counters {
	until := r.CompletionTime
	if !r.Completed {
		until = r.Setup.Limit
	}
	c := telemetry.CountersFromSnapshot(r.Collector.Snapshot(until))
	if r.Engine != nil {
		st := r.Engine.Stats()
		c.Set("engine_windows_total", st.Windows)
		c.Set("engine_ghosts_exported_total", st.GhostsExported)
		c.Set("engine_ghosts_offered_total", st.GhostsOffered)
	}
	var hits, misses, invalidations uint64
	for _, tile := range r.tiles {
		h, m, inv, _ := tile.Medium.CacheStats()
		hits, misses, invalidations = hits+h, misses+m, invalidations+inv
	}
	c.Set("radio_link_cache_hits_total", int64(hits))
	c.Set("radio_link_cache_misses_total", int64(misses))
	c.Set("radio_link_cache_invalidations_total", int64(invalidations))
	return c
}

// FinishTelemetry emits the final counters summary to the attached
// telemetry recorder. Run calls it automatically; callers driving the
// kernel themselves (after Build) call it once the run is over.
func (r *Result) FinishTelemetry() {
	if r.Setup.Telemetry == nil {
		return
	}
	r.Setup.Telemetry.Summary(r.Counters().Snapshot())
}

// Build constructs the deployment without starting the protocols, so
// callers can schedule fault injection or custom instrumentation first;
// follow with res.RunToCompletion(), or — on a single tile, where
// res.Kernel is set — res.Network.Start() and drive res.Kernel directly.
//
// Every deployment is a list of tiles, each a kernel, a medium over the
// shared channel Geometry, and a collector. One tile is the classic
// simulator: the kernel is seeded with Seed itself, the medium owns
// every node (no ownership table, no partition sort), observers hang
// directly on the nodes, and no engine exists. Several tiles get
// per-tile seeds and the lockstep engine, with single-instance
// observers fed through its barrier replay. Everything downstream — the
// invariant checker, faults, mobility — sees the difference only
// through the now/at pair below.
func Build(s Setup) (*Result, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	fail := func(err error) (*Result, error) {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	raw := s.ImageData
	if raw == nil {
		raw = make([]byte, s.ImagePackets*image.DefaultPayloadSize)
		fill := sim.NewRand(s.Seed + 77)
		fill.Read(raw)
		sim.ReleaseRand(fill)
	}
	img, err := image.New(1, raw)
	if err != nil {
		return fail(err)
	}
	// Unit IDs travel in one byte (Deluge's pages wrap past 255).
	geom := protocols[s.Protocol].geometry(img)
	if geom.Units() > 255 {
		return fail(fmt.Errorf("%d packets make %d units of %d under %v, past the one-byte unit ID", img.TotalPackets(), geom.Units(), geom.Unit(), s.Protocol))
	}
	layout := s.Layout
	if layout == nil {
		layout, err = topology.Grid(s.Rows, s.Cols, s.Spacing)
		if err != nil {
			return fail(err)
		}
	}
	rp := radio.DefaultParams()
	if s.Radio != nil {
		rp = *s.Radio
	}
	geo, err := radio.NewGeometry(layout, rp, s.Seed+1)
	if err != nil {
		return fail(err)
	}
	rangeFt, err := geo.RangeFor(s.Power)
	if err != nil {
		return fail(err)
	}
	grid, cuts, err := s.partition(layout)
	if err != nil {
		return fail(err)
	}
	tiles := make([]*engine.Shard, len(cuts))
	collectors := make([]*metrics.Collector, len(cuts))
	for i, cut := range cuts {
		// Events scale with nodes: a re-armed timer keeps its one queue
		// entry, so the deepest queue measured on the benchmark workloads
		// is 1.3 events per mote on the dense 20×20 flood and 1.9 under
		// mobile gossip. Sizing the heap up front keeps 10k-node runs from
		// re-growing it mid-run, and the kernel carves what the hint says —
		// a 16-mote campaign cell gets 64 events, not a fixed 1 024 — and
		// doubles if a run goes deeper (the deepest campaign-slice cell
		// queues 357 events on at most 64 motes); capacity never affects
		// event order.
		seed, sizeHint := s.Seed, 2*layout.N()
		if len(cuts) > 1 {
			// Distinct RNG streams per tile; the stride keeps tile seeds
			// clear of the seed+1 (link noise) and seed+77 (image fill)
			// derivations. Seeds depend on the tile index only — never on
			// executors or workers — so results are a pure function of
			// (Seed, tile grid).
			seed, sizeHint = s.Seed+0x5EED*int64(i+1), 2*len(cut.Owned)+64
		}
		kernel := sim.NewSized(seed, sizeHint)
		medium, err := radio.NewShardMedium(kernel, geo, cut.Owned)
		if err != nil {
			return fail(err)
		}
		collectors[i], err = metrics.NewCollector(metrics.Config{
			Layout:            layout,
			Airtime:           geo.Airtime,
			NeighborhoodRange: rangeFt,
		}, kernel.Now)
		if err != nil {
			return fail(err)
		}
		medium.SetSink(collectors[i])
		bounds := cut.Bounds
		tiles[i] = &engine.Shard{Kernel: kernel, Medium: medium, Owned: cut.Owned, Bounds: &bounds}
	}
	res := &Result{Setup: s, Layout: layout, Image: img, geom: geom, tiles: tiles}

	// now and at are the only two things that differ between one tile
	// and several: the observation clock, and how a whole-deployment
	// action is scheduled at simulated time t. At Build time the kernel
	// clock is zero and a re-arm from inside an action runs at the
	// action's nominal instant, so on one tile every at(t, fn) is the
	// kernel event MustSchedule(t, fn) always was.
	k0 := tiles[0].Kernel
	now, at := k0.Now, func(t time.Duration, fn func()) { k0.MustSchedule(t-k0.Now(), fn) }
	var eng *engine.Engine
	if len(tiles) == 1 {
		res.Kernel, res.Medium, res.Collector = k0, tiles[0].Medium, collectors[0]
	} else {
		eng, err = engine.New(engine.Config{
			Window:  engine.ConservativeWindow(geo),
			Workers: s.Workers,
			Shards:  min(s.Shards, len(tiles)),
			OnLoad: func(lr engine.LoadReport) {
				res.Loads = append(res.Loads, lr)
				if s.Telemetry != nil {
					for _, sl := range lr.Shards {
						s.Telemetry.Load(lr.Barrier, lr.Window, sl.Shard, sl.Tiles, sl.Events, sl.Delivered, sl.WaitNs, 0)
					}
				}
			},
		}, tiles)
		if err != nil {
			return fail(err)
		}
		now, at = eng.Now, eng.At
		res.Engine, res.TileGrid = eng, grid
		res.tileCollectors, res.tileOf = collectors, engine.TileOf(layout.N(), cuts)
	}
	res.Now = now

	// Single-instance observers, in a fixed order: user observer,
	// telemetry, invariant checker. One tile chains them behind its
	// collector on every node; several feed them the merged stream
	// through the engine's barrier replay.
	var shared node.MultiObserver
	if s.Observer != nil {
		shared = append(shared, s.Observer)
	}
	if s.Telemetry != nil {
		// Storage records carry no timestamp of their own; they read
		// the run clock (the engine's replay clock on several tiles).
		s.Telemetry.SetClock(now)
		// The stream opens with the run's identity, then the full fault
		// plan — emitted up front so a reader of a truncated stream still
		// knows what was going to be injected.
		s.Telemetry.Meta(s.Name, s.Seed, layout.N(), img.TotalPackets(), s.Protocol.String())
		if s.Faults != nil {
			for _, ev := range s.Faults.Events {
				s.Telemetry.Fault(ev.At, ev.Kind.String(), ev.Describe())
			}
		}
		shared = append(shared, s.Telemetry)
	}
	if s.Invariants {
		icfg := invariant.Config{Now: now, Senders: metrics.NewSenderWindows(layout, rangeFt)}
		if rec := s.Telemetry; rec != nil {
			icfg.OnViolation = func(v invariant.Violation) {
				rec.Violation(v.At, v.Node, v.Rule, v.Detail)
			}
		}
		res.Invariants, err = invariant.New(icfg)
		if err != nil {
			return fail(err)
		}
		shared = append(shared, res.Invariants)
		if eng == nil {
			res.Medium.SetTap(res.Invariants.PacketSent)
		} else {
			eng.SetTap(res.Invariants.PacketSent)
			for i, tile := range tiles {
				tile.Medium.SetTap(eng.ShardObserver(i).PacketSent)
			}
		}
	}
	observers := make([]node.Observer, len(tiles))
	for i := range tiles {
		switch {
		case len(shared) == 0:
			observers[i] = collectors[i]
		case eng == nil:
			observers[i] = append(node.MultiObserver{collectors[i]}, shared...)
		default:
			observers[i] = node.MultiObserver{collectors[i], eng.ShardObserver(i)}
		}
	}
	if eng != nil && len(shared) > 0 {
		eng.SetObserver(shared)
	}
	tileOf := func(id packet.NodeID) int {
		if res.tileOf == nil {
			return 0
		}
		return res.tileOf[id]
	}
	nw, err := s.newNetwork(img, layout, func(id packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) {
		i := tileOf(id)
		return tiles[i].Kernel, tiles[i].Medium, observers[i]
	})
	if err != nil {
		return nil, err
	}
	res.Network = nw

	if s.Faults != nil {
		env := faults.Env{At: at, Network: nw, TileOf: tileOf, Seed: s.Seed, Base: s.BaseID}
		for _, tile := range tiles {
			env.Mediums = append(env.Mediums, tile.Medium)
			env.Clocks = append(env.Clocks, tile.Kernel.Now)
		}
		if err := s.Faults.Apply(env); err != nil {
			return fail(err)
		}
	}
	if s.Mobility != nil {
		model, err := s.Mobility(layout, s.Seed)
		if err != nil {
			return fail(err)
		}
		// Position updates land at every nominal instant k×MobilityEvery
		// through at — on several tiles that is an engine barrier with
		// every worker parked, the only point a mutation of the shared
		// Geometry is safe. The model is stepped with the nominal instant
		// (not the barrier time), and ConservativeWindow is
		// grid-independent, so trajectories depend on nothing but
		// (seed, step) and tiled runs stay a pure function of (Seed, tile
		// grid) under mobility. The engine's ghost-filter bounds are
		// refreshed from the moved layout before the next window opens.
		var arm func(nominal time.Duration)
		arm = func(nominal time.Duration) {
			at(nominal, func() {
				moved := model.Moves(nominal)
				for _, mv := range moved {
					geo.MoveNode(mv.ID, mv.To)
				}
				if eng != nil && len(moved) > 0 {
					for _, tile := range tiles {
						*tile.Bounds = engine.BoundsOf(layout, tile.Owned)
					}
				}
				if next := nominal + s.MobilityEvery; next <= s.Limit {
					arm(next)
				}
			})
		}
		arm(s.MobilityEvery)
	}
	armImageCheck(res.Invariants, img, res.geom, nw)
	return res, nil
}

// partition chooses the run's tile grid — explicit, or Shards strips —
// and cuts the layout into it. A grid of one tile (the default) returns
// the zero Grid and a single cut with nil Owned: the whole deployment,
// which costs no sort, map, or per-node flag however large it is.
func (s Setup) partition(layout *topology.Layout) (engine.Grid, []engine.Tile, error) {
	grid := engine.Grid{Rows: s.TileRows, Cols: s.TileCols}
	if grid.Tiles() == 0 {
		grid = engine.StripGrid(layout, s.Shards)
	}
	if grid.Tiles() == 1 {
		return engine.Grid{}, []engine.Tile{{}}, nil
	}
	cuts, err := engine.TilePartition(layout, grid)
	return grid, cuts, err
}

// armImageCheck installs the segment-image-integrity invariant on a
// checker: stored payloads of every completed unit must match the
// source image byte-for-byte, the unit read through g, the protocol's
// geometry (Deluge's pages, everyone else's segments). The stored hook
// reads the node's EEPROM directly (not through the runtime), so
// checking stays observation-only: no StorageOp events, no energy
// charge, no behavior perturbation.
func armImageCheck(checker *invariant.Checker, img *image.Image, g image.Geometry, nw *node.Network) {
	if checker == nil {
		return
	}
	checker.SetImageCheck(
		func(seg, pkt int) ([]byte, bool) {
			if pkt >= g.PacketsIn(seg) {
				return nil, false
			}
			p, err := img.FlatPayload(g.Seq(seg, pkt))
			return p, err == nil
		},
		func(id packet.NodeID, seg, pkt int) []byte {
			n := nw.Node(id)
			if n == nil {
				return nil
			}
			return n.EEPROM().Read(seg, pkt)
		},
	)
}

// newNetwork builds the network over place, each mote's protocol from
// the configured row of the protocols table.
func (s Setup) newNetwork(img *image.Image, layout *topology.Layout, place func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer)) (*node.Network, error) {
	build := protocols[s.Protocol].build
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		ncfg := node.Config{TxPower: s.Power}
		if s.Battery != nil {
			ncfg.Battery = s.Battery(id)
		}
		var base *image.Image
		if id == s.BaseID {
			base = img
		}
		return build(base, s.Variant), ncfg
	}, place)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	return nw, nil
}

// LoadMatrix flattens the run's engine load reports into one
// per-period per-executor vector of deterministic load (kernel events
// + frame deliveries), the shape metrics.SummarizeLoads consumes.
func (r *Result) LoadMatrix() [][]int64 {
	out := make([][]int64, 0, len(r.Loads))
	for _, lr := range r.Loads {
		row := make([]int64, len(lr.Shards))
		for i, sl := range lr.Shards {
			row[i] = sl.Events + sl.Delivered
		}
		out = append(out, row)
	}
	return out
}

// VerifyInvariants returns the checker's first recorded violation, or
// nil when no checker was attached or every invariant held.
func (r *Result) VerifyInvariants() error {
	if r.Invariants == nil {
		return nil
	}
	return r.Invariants.Err()
}

// VerifyImages checks the reliability requirement on every mote that
// is not dead, down ones included (their flash survives), and returns
// its findings joined, nil when there are none: a mote that did not
// complete, a mote that wrote a slot twice, and a completed mote whose
// flash, reassembled through the protocol's geometry, is not the image
// byte for byte. A rewrite is a finding of its own; the
// mote's bytes are compared all the same.
func (r *Result) VerifyImages() error {
	var errs []error
	for _, n := range r.Network.Nodes {
		if n.Dead() {
			continue
		}
		if !n.Completed() {
			errs = append(errs, fmt.Errorf("node %v incomplete", n.ID()))
			continue
		}
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			errs = append(errs, fmt.Errorf("node %v rewrote EEPROM (max %d writes)", n.ID(), w))
		}
		if err := r.verifyBytes(n); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// verifyBytes reassembles n's flash through the protocol's geometry and
// compares it with the image.
func (r *Result) verifyBytes(n *node.Node) error {
	data, err := r.Image.Reassemble(r.geom, n.EEPROM().Read)
	if err != nil {
		return fmt.Errorf("node %v: %w", n.ID(), err)
	}
	if !r.Image.Verify(data) {
		return fmt.Errorf("node %v: image mismatch", n.ID())
	}
	return nil
}

// Package radio models the wireless channel the way TOSSIM does: the
// network is a directed graph whose edges carry independent bit-error
// probabilities (hence asymmetric links), layered with a Mica-2 CC1000
// timing model (19.2 kbps), CSMA carrier sensing, and collision
// semantics under which overlapping audible frames corrupt each other
// at a receiver. The hidden-terminal problem — two transmitters out of
// each other's carrier-sense range colliding at a node between them —
// falls out of the model rather than being special-cased.
//
// Geometry and transmit ranges are immutable for a run, but unlike the
// dense TOSSIM tables the channel never materializes an N×N matrix:
// node positions go into a uniform grid hash (cell edge = the maximum
// radio range), and the audible neighbor list plus directed link BERs
// for one (power, source) pair are built on first transmission and kept
// in a bounded per-medium LRU cache. Everything is derived from pure
// functions of (layout, params, seed) — in particular the per-link
// asymmetry noise is a hash of (seed, src, dst), never of construction
// order — so the sparse channel is byte-identical to the dense one it
// replaced while memory and startup scale with the number of in-range
// links instead of N². The per-frame hot path does no per-frame
// allocation: transmissions are recycled through a free list, collision
// marking works on pooled bit sets indexed by audible-list position,
// and frames decode through a per-medium reuse cache.
package radio

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"mnp/internal/bitvec"
	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// Params configures the channel model's link quality.
type Params struct {
	// BERFloor is the bit-error rate of a perfect (zero-distance) link.
	BERFloor float64
	// BERCeil is the bit-error rate at exactly the communication range.
	BERCeil float64
	// AsymSigma is the standard deviation of the per-directed-link
	// lognormal noise factor applied to the BER, producing the
	// asymmetric links TOSSIM's empirical model exhibits. Zero disables
	// link noise.
	AsymSigma float64
}

// bitRateBps is the Mica-2 CC1000 bit rate.
const bitRateBps = 19200

// linkCacheSources caps how many (power, source) link rows a medium
// keeps cached; once full, the least recently transmitting source's
// row is recomputed on its next frame. At a typical degree of tens of
// neighbors this is a few tens of megabytes — small next to the node
// state of a deployment large enough to fill it. Cache hits and misses
// produce identical behavior.
const linkCacheSources = 1 << 16

// DefaultParams returns the Mica-2 model used by the experiments.
func DefaultParams() Params {
	return Params{
		BERFloor:  1e-4,
		BERCeil:   2e-2,
		AsymSigma: 0.3,
	}
}

// Power levels referenced by the paper's experiments. TinyOS exposes
// 1..255; the paper uses "the lowest power levels (3 and 4)" indoors,
// "power level 50 and default power level (255)" outdoors, and we add a
// mid level for the 20×20 TOSSIM-style simulations.
const (
	PowerWeak       = 1 // battery-aware advertisements from drained nodes
	PowerIndoorLow  = 3
	PowerIndoorHigh = 4
	PowerSim        = 20
	PowerOutdoorLow = 50
	PowerFull       = 255
)

// maxRangeFeet is the longest transmit range, PowerFull's; it is the
// spatial index's cell edge.
const maxRangeFeet = 70

// RangeFeet returns the communication (and carrier-sense) range in feet
// of a power level, and false for a level without one.
func RangeFeet(power int) (float64, bool) {
	switch power {
	case PowerWeak:
		return 15, true
	case PowerIndoorLow:
		return 32, true
	case PowerIndoorHigh:
		return 55, true
	case PowerSim:
		return 27, true
	case PowerOutdoorLow:
		return 35, true
	case PowerFull:
		return maxRangeFeet, true
	}
	return 0, false
}

// RxMeta describes a successful reception.
type RxMeta struct {
	From packet.NodeID
	// To is the receiving mote, so one handler can serve every mote of
	// a medium.
	To    packet.NodeID
	Bytes int
	At    time.Duration
}

// FrameHandler consumes a decoded frame at a node.
type FrameHandler func(p packet.Packet, meta RxMeta)

// TrafficSink observes channel activity for metrics. Implementations
// must not re-enter the medium.
type TrafficSink interface {
	// FrameSent fires once per transmission at its start.
	FrameSent(src packet.NodeID, kind packet.Kind, bytes int)
	// FrameReceived fires per successful reception.
	FrameReceived(dst, src packet.NodeID, kind packet.Kind, bytes int)
	// FrameCollided fires per receiver that lost a frame to collision.
	FrameCollided(dst, src packet.NodeID, kind packet.Kind)
}

// NopSink discards all traffic events.
type NopSink struct{}

// FrameSent implements TrafficSink.
func (NopSink) FrameSent(packet.NodeID, packet.Kind, int) {}

// FrameReceived implements TrafficSink.
func (NopSink) FrameReceived(packet.NodeID, packet.NodeID, packet.Kind, int) {}

// FrameCollided implements TrafficSink.
func (NopSink) FrameCollided(packet.NodeID, packet.NodeID, packet.Kind) {}

var _ TrafficSink = NopSink{}

// nodeState is one mote's radio. The three flags sit together so the
// struct stays 48 bytes: every tile's medium holds one per mote of the
// whole deployment.
type nodeState struct {
	handler FrameHandler
	onSince time.Duration
	txStart time.Duration
	txEnd   time.Duration
	// carrierUntil is the latest end-of-frame among the transmissions,
	// local and ghost, that this mote transmitted or could hear when they
	// started. Frames are never withdrawn from the air early (Destroy and
	// a crash leave them to finish), so the maximum alone answers Busy.
	carrierUntil time.Duration
	on           bool
	everTx       bool
	destroyed    bool
}

// transmission is one frame in the air. full, ber, and deliver are
// borrowed read-only from the medium's link cache; frame and corrupted
// are owned and recycled with the transmission through the free list.
// corrupted is indexed by POSITION in full, not by node ID, so its
// capacity follows the transmitter's degree instead of the network
// size.
type transmission struct {
	src   packet.NodeID
	kind  packet.Kind
	bytes int
	start time.Duration
	end   time.Duration
	frame []byte
	// full lists every audible receiver in ascending ID order; ber is
	// aligned with it.
	full []packet.NodeID
	ber  []float64
	// deliver indexes into full the receivers this medium owns and so
	// delivers to; nil means all of them (the unsharded case).
	deliver []int32
	// rangeFt is the transmit range of this frame's power level, for
	// the O(1) disjointness prefilter in collide.
	rangeFt   float64
	corrupted *bitvec.Set
	// finishFn is the end-of-frame callback, bound once per pooled
	// transmission so scheduling it never allocates a closure.
	finishFn func()
}

// posOf returns id's position in the full audible list, or -1.
func (t *transmission) posOf(id packet.NodeID) int {
	if i, ok := slices.BinarySearch(t.full, id); ok {
		return i
	}
	return -1
}

// deliverLen returns how many receivers this medium delivers to.
func (t *transmission) deliverLen() int {
	if t.deliver == nil {
		return len(t.full)
	}
	return len(t.deliver)
}

// deliverPos maps a delivery slot to its position in full.
func (t *transmission) deliverPos(i int) int {
	if t.deliver == nil {
		return i
	}
	return int(t.deliver[i])
}

// Geometry is the shared part of a channel: node positions, the
// spatial index over them, and the model parameters. For a static
// layout it depends only on (layout, params, seed), never on event
// order, so the sharded engine builds one Geometry and shares it
// read-only across every shard's Medium; the mutable per-source link
// cache lives in each Medium. Mobility mutates positions through
// MoveNode, which is only ever called at engine barriers (all shard
// workers parked), so the read paths stay safe for concurrent use and
// every position update is stamped for the link caches to detect.
type Geometry struct {
	layout *topology.Layout
	params Params
	seed   int64
	n      int
	pts    []topology.Point // layout's backing points, written only by MoveNode
	index  *topology.Index  // grid hash, cell edge = max radio range
	// berLogSpan is ln(BERCeil/BERFloor), the exponent linkBER scales
	// by the squared range fraction.
	berLogSpan float64

	// moveStamp is a global monotone counter of position updates;
	// cellEpoch[c] records the stamp of the last move whose old or new
	// position fell in grid cell c. Nil until the first MoveNode, so
	// static runs pay nothing and draw no extra randomness.
	moveStamp uint64
	cellEpoch []uint64
}

// NewGeometry validates the channel model and builds the spatial index
// (O(N), unlike the O(N²) distance matrix it replaced). seed drives the
// per-link asymmetry noise.
func NewGeometry(layout *topology.Layout, p Params, seed int64) (*Geometry, error) {
	if layout == nil {
		return nil, fmt.Errorf("radio: nil layout")
	}
	if p.BERFloor < 0 || p.BERCeil <= p.BERFloor || p.BERCeil >= 1 {
		return nil, fmt.Errorf("radio: BER bounds [%g, %g] invalid", p.BERFloor, p.BERCeil)
	}
	index, err := topology.NewIndex(layout, maxRangeFeet)
	if err != nil {
		return nil, fmt.Errorf("radio: %w", err)
	}
	return &Geometry{
		layout: layout,
		params: p,
		seed:   seed,
		n:      layout.N(),
		pts:    layout.Points(),
		index:  index,

		berLogSpan: math.Log(p.BERCeil / p.BERFloor),
	}, nil
}

// Airtime returns how long a frame of the given size occupies the
// channel.
func (g *Geometry) Airtime(bytes int) time.Duration {
	bits := bytes * 8
	return time.Duration(float64(bits) / bitRateBps * float64(time.Second))
}

// RangeFor returns the communication range for a power level.
func (g *Geometry) RangeFor(power int) (float64, error) {
	r, ok := RangeFeet(power)
	if !ok {
		return 0, fmt.Errorf("radio: no range configured for power level %d", power)
	}
	return r, nil
}

// Footprint returns the resident bytes of the geometry: the position
// slice plus the spatial index. With the dense tables gone this is the
// whole per-run channel cost outside the per-medium link cache, and it
// scales linearly with N.
func (g *Geometry) Footprint() uint64 {
	return uint64(len(g.pts))*16 + g.index.Footprint()
}

// computeLinks materializes the audible neighbor list and directed link
// BERs for one (power, src) pair: exactly the row the dense per-power
// table used to hold, built from the spatial index in O(degree). The
// geometry is only read (it is shared across tiles); the query lands in
// this medium's scratch and the row is copied out at its exact size.
// Results depend only on (layout, params, seed).
func (m *Medium) computeLinks(power int, src packet.NodeID) ([]packet.NodeID, []float64, error) {
	g := m.geo
	rng, err := g.RangeFor(power)
	if err != nil {
		return nil, nil, err
	}
	m.scratch = g.index.AppendWithin(src, rng, m.scratch[:0])
	if len(m.scratch) == 0 {
		return nil, nil, nil
	}
	ids := slices.Clone(m.scratch)
	ber := make([]float64, len(ids))
	p := g.pts[src]
	for i, dst := range ids {
		ber[i] = g.linkBER(p.Distance(g.pts[dst]), rng, m.linkNoise(src, dst))
	}
	return ids, ber, nil
}

// distance returns the exact link distance between two nodes — the same
// float the dense distance matrix held, since Hypot is symmetric.
func (g *Geometry) distance(a, b packet.NodeID) float64 {
	return g.pts[a].Distance(g.pts[b])
}

// MoveNode updates node id's position, keeping the spatial index exact
// and stamping the grid cells the move touches so every Medium's
// link-row cache can detect rows whose source or audible set changed.
// Mobility is the only caller and runs strictly at engine barriers
// (shard workers parked), which is what makes a mutation of the shared
// Geometry safe.
func (g *Geometry) MoveNode(id packet.NodeID, to topology.Point) {
	if g.cellEpoch == nil {
		cols, rows := g.index.Cells()
		g.cellEpoch = make([]uint64, cols*rows)
	}
	from := g.index.CellIndex(g.pts[id])
	g.index.Move(id, to) // writes through the shared point slice
	g.moveStamp++
	g.cellEpoch[from] = g.moveStamp
	if c := g.index.CellIndex(to); c != from {
		g.cellEpoch[c] = g.moveStamp
	}
}

// Moves returns how many MoveNode calls the geometry has absorbed.
func (g *Geometry) Moves() uint64 { return g.moveStamp }

// regionStamp returns the newest move stamp among the grid cells
// covering the disc of the given radius around src's current position —
// exactly the cell set a link-row build for (src, radius) reads. A
// cached row is fresh iff this value still equals the stamp recorded at
// build time: stamps are issued from one monotone counter, so any later
// move of the source (its new cell is inside the current disc) or of an
// audible-set member (its old or new cell overlaps the disc) makes the
// region's maximum strictly newer. Zero when no move ever touched the
// region.
func (g *Geometry) regionStamp(src packet.NodeID, radius float64) uint64 {
	if g.cellEpoch == nil {
		return 0
	}
	cols, _ := g.index.Cells()
	cx0, cy0, cx1, cy1 := g.index.CellRect(g.pts[src], radius)
	var newest uint64
	for cy := cy0; cy <= cy1; cy++ {
		base := cy * cols
		for cx := cx0; cx <= cx1; cx++ {
			if s := g.cellEpoch[base+cx]; s > newest {
				newest = s
			}
		}
	}
	return newest
}

// linkKey identifies one cached link row.
type linkKey struct {
	power int
	src   packet.NodeID
}

// linkRow is the materialized channel state for one (power, source)
// pair: the full audible list with aligned BERs, plus this medium's
// delivery view of it. A row found stale is repaired in place (see
// repair), but never under a frame still in the air: a repair that
// finds its arrays lent to an active transmission writes fresh ones,
// and eviction just drops the cache's reference, so in-flight
// transmissions keep the slices they started with.
type linkRow struct {
	key  linkKey
	full []packet.NodeID
	ber  []float64
	// noise is aligned with full: each link's asymmetry factor, carried
	// across repairs so a surviving link never draws it again. Nil until
	// the row's first repair; rows of a static run never carry it.
	noise   []float64
	rangeFt float64
	// deliver indexes the receivers this medium owns; nil = all
	// (unsharded).
	deliver []int32
	// boundary marks that some audible receiver is owned by another
	// shard, so frames from this source must be exported as ghosts.
	boundary bool
	// stamp is the geometry's regionStamp over the row's coverage disc
	// at build or repair time; a mismatch on lookup means the source or
	// its audible set moved and the row must be repaired.
	stamp uint64

	prev, next *linkRow // LRU list, most recent at head
}

// Medium is the shared wireless channel. It is driven entirely by the
// simulation kernel and is not safe for concurrent use. In a sharded
// run each shard has its own Medium over a shared Geometry; a Medium
// then owns a subset of the nodes and exchanges boundary-crossing
// frames with its peers as Ghost records.
type Medium struct {
	kernel *sim.Kernel
	geo    *Geometry
	nodes  []nodeState
	active []*transmission
	sink   TrafficSink

	n      int
	freeTx []*transmission

	// links is the bounded LRU cache of per-(power, src) rows. Each
	// medium has its own, so shards never contend on a shared table.
	// lruCap is linkCacheSources; tests lower it to force evictions.
	links                  map[linkKey]*linkRow
	lruHead                *linkRow
	lruTail                *linkRow
	lruCap                 int
	cacheInvalidations     uint64
	cacheHits, cacheMisses uint64
	// scratch receives each link-row query before it is copied into the
	// row; merged stages a repair's noise factors, see repair.
	scratch []packet.NodeID
	merged  []float64

	// dec reuses one decoded message per kind across frame deliveries;
	// handlers treat incoming packets as read-only and copy at the
	// storage boundary, so reuse is invisible to them.
	dec packet.DecodeCache
	// encoded is Transmit's scratch frame; TransmitFrame copies it.
	encoded []byte

	// owned flags the nodes this Medium simulates; nil (the sequential
	// case) means all of them. Handlers, radio state, and deliveries
	// exist only for owned nodes.
	owned  []bool
	outbox []Ghost
	// arena backs the Frame of every ghost in outbox; TakeOutbox resets
	// both together.
	arena     []byte
	ghostSeq  uint64
	delivered uint64 // cumulative successful frame deliveries

	// success memoizes the per-delivery frame-success power, sized at
	// the first delivery; successShift turns a key's hash into a slot
	// of it. See frameSuccess.
	success      []successEntry
	successShift uint

	// tap, when set, observes every transmitted frame in decoded form
	// (invariant checkers need packet contents, which TrafficSink
	// deliberately omits). Nil costs nothing.
	tap Tap
	// linkFault, when set, returns an extra drop probability for the
	// directed link (src, dst), applied per frame at delivery time.
	// Fault injection installs it; nil (the default) costs nothing and
	// draws no randomness, keeping fault-free runs byte-identical.
	linkFault func(src, dst packet.NodeID) float64
}

// Ghost is a boundary-crossing transmission exported by one shard and
// replayed into the others at a window barrier: enough to reproduce the
// frame's exact occupancy of the channel ([Start, End)), its collision
// footprint, and its delivery, without the transmitter itself.
type Ghost struct {
	Src   packet.NodeID
	Kind  packet.Kind
	Power int
	Start time.Duration
	End   time.Duration
	// Seq is the transmit order within the source shard; the engine
	// merges outboxes by (Start, Src, Seq) so the exchange is a pure
	// function of simulation state, never of goroutine arrival order.
	Seq   uint64
	Frame []byte
	// X, Y, RangeFt are the transmitter's position and transmit range,
	// exported so the engine can skip offering the ghost to tiles whose
	// bounding box lies entirely beyond the range (such an insertion
	// would be a no-op: no receiver there could hear the frame).
	X, Y    float64
	RangeFt float64
}

// Tap observes a successfully started transmission: the decoded packet
// and its airtime. The packet is decoded for the tap alone, so the tap
// may keep it; an untapped medium decodes nothing at transmit.
// Implementations must not re-enter the medium.
type Tap func(src packet.NodeID, p packet.Packet, air time.Duration)

// SetTap installs the transmission tap (nil to remove).
func (m *Medium) SetTap(t Tap) { m.tap = t }

// SetLinkFault installs a per-directed-link extra drop probability,
// consulted once per (frame, receiver) after the channel's own
// bit-error draw: 0 delivers normally, 1 drops deterministically,
// in-between drops with that probability using the kernel RNG. Used by
// fault plans to model degraded links and partitions.
func (m *Medium) SetLinkFault(f func(src, dst packet.NodeID) float64) { m.linkFault = f }

// NewMedium builds a channel over layout. seed drives the per-link
// asymmetry noise (independent of the kernel's RNG so that link quality
// is a stable property of the deployment).
func NewMedium(k *sim.Kernel, layout *topology.Layout, p Params, seed int64) (*Medium, error) {
	geo, err := NewGeometry(layout, p, seed)
	if err != nil {
		return nil, err
	}
	return NewShardMedium(k, geo, nil)
}

// NewShardMedium builds one shard's channel over a shared Geometry.
// owned lists the node IDs this shard simulates; nil means all of them
// (exactly NewMedium). Frames transmitted by owned nodes that reach
// nodes owned elsewhere accumulate in the outbox for the engine to
// exchange at window barriers.
func NewShardMedium(k *sim.Kernel, geo *Geometry, owned []packet.NodeID) (*Medium, error) {
	if k == nil || geo == nil {
		return nil, fmt.Errorf("radio: nil kernel or geometry")
	}
	m := &Medium{
		kernel: k,
		geo:    geo,
		nodes:  make([]nodeState, geo.n),
		sink:   NopSink{},
		n:      geo.n,
		links:  make(map[linkKey]*linkRow),
		lruCap: linkCacheSources,
	}
	if owned != nil {
		m.owned = make([]bool, geo.n)
		for _, id := range owned {
			if int(id) >= geo.n {
				return nil, fmt.Errorf("radio: owned node %v outside the %d-node layout", id, geo.n)
			}
			m.owned[id] = true
		}
	}
	return m, nil
}

// Geometry returns the shared channel geometry (mutable only through
// MoveNode, at barriers).
func (m *Medium) Geometry() *Geometry { return m.geo }

// CacheStats reports link-cache hits, misses, mobility invalidations,
// and resident rows since the medium was built — a diagnostic for
// sizing the link cache and for seeing how hard mobility churns the
// cache. An invalidation is a cached row discarded because its source
// or audible set moved; the rebuild that follows is counted as a miss,
// so hits+misses still totals the lookups.
func (m *Medium) CacheStats() (hits, misses, invalidations uint64, entries int) {
	return m.cacheHits, m.cacheMisses, m.cacheInvalidations, len(m.links)
}

// CacheHitRate returns the link-cache hit fraction in [0, 1]. Before
// the first lookup the rate is defined as 0 — not the NaN that raw
// hits/(hits+misses) produces, which poisons any aggregate it touches.
func (m *Medium) CacheHitRate() float64 {
	total := m.cacheHits + m.cacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.cacheHits) / float64(total)
}

// linkRowFor returns the cached link row for (power, src), building it
// from the geometry on a miss and evicting the least recently used row
// beyond the cache bound. Cache state never affects behavior: a rebuilt
// row is identical to the evicted one. Under mobility a cached row is
// revalidated against the geometry's per-cell move stamps, so a row
// whose source or audible set moved is never served stale — it is
// repaired in place (counted as an invalidation plus a miss), keeping
// its map entry and LRU position.
func (m *Medium) linkRowFor(power int, src packet.NodeID) (*linkRow, error) {
	key := linkKey{power: power, src: src}
	if row, ok := m.links[key]; ok {
		if m.geo.regionStamp(src, row.rangeFt) != row.stamp {
			m.cacheInvalidations++
			m.cacheMisses++
			m.repair(row)
		} else {
			m.cacheHits++
		}
		m.lruMoveFront(row)
		return row, nil
	}
	full, ber, err := m.computeLinks(power, src)
	if err != nil {
		return nil, err
	}
	m.cacheMisses++
	rangeFt, _ := m.geo.RangeFor(power) // computeLinks already validated power
	row := &linkRow{key: key, full: full, ber: ber, rangeFt: rangeFt,
		stamp: m.geo.regionStamp(src, rangeFt)}
	if m.owned != nil {
		m.route(row, make([]int32, 0, len(full)))
	}
	m.links[key] = row
	m.lruPushFront(row)
	for len(m.links) > m.lruCap {
		evict := m.lruTail
		m.lruUnlink(evict)
		delete(m.links, evict.key)
	}
	return row, nil
}

// repair brings a stale row to the geometry's current positions: the
// index query gives the new audible list, a merge-walk against the old
// one carries each surviving link's noise factor over (exact, since the
// factor is a pure function of (seed, src, dst)) so only a newly
// audible link draws, and every BER is recomputed because distances
// moved. The row's own arrays are written in place unless a frame in
// the air still reads them or they are too short; then fresh ones are
// taken, with headroom.
func (m *Medium) repair(row *linkRow) {
	g := m.geo
	src := row.key.src
	m.scratch = g.index.AppendWithin(src, row.rangeFt, m.scratch[:0])
	m.merged = m.merged[:0]
	i := 0 // a row built on a miss has no noise yet: every link draws
	for _, dst := range m.scratch {
		for i < len(row.noise) && row.full[i] < dst {
			i++
		}
		if i < len(row.noise) && row.full[i] == dst {
			m.merged = append(m.merged, row.noise[i])
		} else {
			m.merged = append(m.merged, m.linkNoise(src, dst))
		}
	}
	n, lent := len(m.scratch), m.lent(row)
	row.full = reuse(row.full, n, lent)
	row.ber = reuse(row.ber, n, lent)
	row.noise = reuse(row.noise, n, false) // read by repairs alone, never lent
	copy(row.full, m.scratch)
	copy(row.noise, m.merged)
	p := g.pts[src]
	for i, dst := range row.full {
		row.ber[i] = g.linkBER(p.Distance(g.pts[dst]), row.rangeFt, row.noise[i])
	}
	if m.owned != nil {
		m.route(row, reuse(row.deliver, n, lent)[:0])
	}
	row.stamp = g.regionStamp(src, row.rangeFt)
}

// lent reports whether a transmission in the air, local or ghost, still
// borrows the row's arrays.
func (m *Medium) lent(row *linkRow) bool {
	if len(row.full) == 0 {
		return false // a frame holding an empty list reads nothing
	}
	for _, t := range m.active {
		if len(t.full) > 0 && &t.full[0] == &row.full[0] {
			return true
		}
	}
	return false
}

// reuse returns s resliced to length n when it may be written in place,
// else a fresh array with headroom, so a neighbourhood that gains a mote
// or two does not reallocate at every step.
func reuse[T any](s []T, n int, fresh bool) []T {
	if !fresh && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/4+2)
}

// route fills an owned medium's delivery view of the row into deliver:
// the positions of the receivers this medium owns, and whether any
// audible receiver is owned elsewhere.
func (m *Medium) route(row *linkRow, deliver []int32) {
	row.boundary = false
	for i, dst := range row.full {
		if m.owned[dst] {
			deliver = append(deliver, int32(i))
		} else {
			row.boundary = true
		}
	}
	row.deliver = deliver
}

func (m *Medium) lruPushFront(row *linkRow) {
	row.prev, row.next = nil, m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = row
	}
	m.lruHead = row
	if m.lruTail == nil {
		m.lruTail = row
	}
}

func (m *Medium) lruUnlink(row *linkRow) {
	if row.prev != nil {
		row.prev.next = row.next
	} else {
		m.lruHead = row.next
	}
	if row.next != nil {
		row.next.prev = row.prev
	} else {
		m.lruTail = row.prev
	}
	row.prev, row.next = nil, nil
}

func (m *Medium) lruMoveFront(row *linkRow) {
	if m.lruHead == row {
		return
	}
	m.lruUnlink(row)
	m.lruPushFront(row)
}

// SetSink installs the traffic observer.
func (m *Medium) SetSink(s TrafficSink) {
	if s == nil {
		m.sink = NopSink{}
		return
	}
	m.sink = s
}

// Register installs the frame handler for node id. Radios start off.
func (m *Medium) Register(id packet.NodeID, h FrameHandler) error {
	if int(id) >= len(m.nodes) {
		return fmt.Errorf("radio: node %v out of range", id)
	}
	m.nodes[id].handler = h
	return nil
}

// SetRadio switches node id's radio on or off. Turning the radio off
// aborts any in-progress reception (the frame is simply not delivered).
func (m *Medium) SetRadio(id packet.NodeID, on bool) {
	st := &m.nodes[id]
	if st.destroyed || st.on == on {
		return
	}
	st.on = on
	if on {
		st.onSince = m.kernel.Now()
	}
}

// RadioOn reports whether node id's radio is on.
func (m *Medium) RadioOn(id packet.NodeID) bool { return m.nodes[id].on }

// Destroy removes node id from the network permanently (failure
// injection: "the sender dies as it is sending packets").
func (m *Medium) Destroy(id packet.NodeID) {
	st := &m.nodes[id]
	st.on = false
	st.destroyed = true
}

// Destroyed reports whether the node has been destroyed.
func (m *Medium) Destroyed(id packet.NodeID) bool { return m.nodes[id].destroyed }

// Airtime returns how long a frame of the given size occupies the
// channel.
func (m *Medium) Airtime(bytes int) time.Duration { return m.geo.Airtime(bytes) }

// RangeFor returns the communication range for a power level.
func (m *Medium) RangeFor(power int) (float64, error) { return m.geo.RangeFor(power) }

// Owns reports whether this Medium simulates node id. A sequential
// medium owns every node.
func (m *Medium) Owns(id packet.NodeID) bool {
	return int(id) < m.n && (m.owned == nil || m.owned[id])
}

// Busy reports whether node id's carrier sense detects an ongoing
// transmission. A node hears a transmission if it is within the
// transmitter's range.
func (m *Medium) Busy(id packet.NodeID) bool {
	return m.nodes[id].carrierUntil > m.kernel.Now()
}

// occupy records t on the carrier of its transmitter and of every mote
// in its audible list, in O(degree) at the start of the frame, so Busy
// never has to search the active transmissions.
func (m *Medium) occupy(t *transmission) {
	if st := &m.nodes[t.src]; st.carrierUntil < t.end {
		st.carrierUntil = t.end
	}
	for _, id := range t.full {
		if st := &m.nodes[id]; st.carrierUntil < t.end {
			st.carrierUntil = t.end
		}
	}
}

// Transmitting reports whether node id is mid-transmission.
func (m *Medium) Transmitting(id packet.NodeID) bool {
	st := &m.nodes[id]
	return st.everTx && st.txEnd > m.kernel.Now()
}

// Neighbors returns the nodes within the transmission range of id at
// the given power level. The returned slice is the caller's to keep.
func (m *Medium) Neighbors(id packet.NodeID, power int) ([]packet.NodeID, error) {
	if _, err := m.geo.RangeFor(power); err != nil {
		return nil, err
	}
	if int(id) >= m.n {
		return nil, nil
	}
	row, err := m.linkRowFor(power, id)
	if err != nil {
		return nil, err
	}
	if len(row.full) == 0 {
		return nil, nil
	}
	return append([]packet.NodeID(nil), row.full...), nil
}

// newTransmission takes a transmission from the free list, or grows the
// pool. The caller assigns the borrowed row references and sizes the
// collision set.
func (m *Medium) newTransmission() *transmission {
	if n := len(m.freeTx); n > 0 {
		t := m.freeTx[n-1]
		m.freeTx[n-1] = nil
		m.freeTx = m.freeTx[:n-1]
		return t
	}
	t := &transmission{corrupted: &bitvec.Set{}}
	t.finishFn = func() { m.finish(t) }
	return t
}

// recycle returns a finished transmission to the free list, dropping
// the borrowed row references. The collision set is re-dimensioned (and
// thereby cleared) at next use.
func (m *Medium) recycle(t *transmission) {
	t.full, t.ber, t.deliver = nil, nil, nil
	m.freeTx = append(m.freeTx, t)
}

// markMutualCorruption merges the overlap of two frames into both
// collision sets: every receiver audible to both transmitters loses
// both frames. A single merge-walk of the two sorted audible lists
// replaces the dense word-wise set intersection.
func markMutualCorruption(t, u *transmission) {
	i, j := 0, 0
	for i < len(t.full) && j < len(u.full) {
		a, b := t.full[i], u.full[j]
		switch {
		case a == b:
			t.corrupted.Add(i)
			u.corrupted.Add(j)
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
}

// collide applies the collision semantics between a new transmission t
// and an active one u: mutual corruption at common receivers, plus
// frame loss at the transmitters themselves.
func (m *Medium) collide(t, u *transmission) {
	// Transmitters farther apart than the sum of their ranges share no
	// audible receiver and cannot hear each other: every marking below
	// would be a no-op, so skip the list walks entirely. At scale this
	// makes concurrent far-apart transmissions O(1) to reconcile.
	if m.geo.distance(t.src, u.src) > t.rangeFt+u.rangeFt {
		return
	}
	markMutualCorruption(t, u)
	// A frame arriving at an active transmitter is lost there, and the
	// new frame is garbled at the other transmitter too.
	if ui := u.posOf(t.src); ui >= 0 {
		u.corrupted.Add(ui)
	}
	if ti := t.posOf(u.src); ti >= 0 {
		t.corrupted.Add(ti)
	}
}

// Transmit encodes pkt and broadcasts it from src through
// TransmitFrame, the one transmit path. Motes hand the medium frames
// their MAC queue encoded at Send; Transmit is for callers that hold a
// packet, such as a replay of captured traffic.
func (m *Medium) Transmit(src packet.NodeID, pkt packet.Packet, power int) (time.Duration, error) {
	m.encoded = packet.AppendEncode(m.encoded[:0], pkt)
	return m.TransmitFrame(src, m.encoded, power)
}

// TransmitFrame broadcasts an encoded frame from src at the given power
// level and returns its airtime. The medium copies the frame, so the
// caller may reuse it once TransmitFrame returns. The caller must keep
// the radio on for the duration. Transmission fails if the radio is
// off, the node is destroyed, a previous transmission is still in the
// air, or the frame's header is malformed.
func (m *Medium) TransmitFrame(src packet.NodeID, frame []byte, power int) (time.Duration, error) {
	st := &m.nodes[src]
	if st.destroyed {
		return 0, fmt.Errorf("radio: node %v is destroyed", src)
	}
	if !st.on {
		return 0, fmt.Errorf("radio: node %v radio is off", src)
	}
	now := m.kernel.Now()
	if st.everTx && st.txEnd > now {
		return 0, fmt.Errorf("radio: node %v already transmitting", src)
	}
	kind, err := packet.FrameKind(frame)
	if err != nil {
		return 0, fmt.Errorf("radio: frame from node %v: %w", src, err)
	}
	row, err := m.linkRowFor(power, src)
	if err != nil {
		return 0, err
	}
	t := m.newTransmission()
	t.frame = append(t.frame[:0], frame...)
	air := m.Airtime(len(t.frame))
	t.src = src
	t.kind = kind
	t.bytes = len(t.frame)
	t.start = now
	t.end = now + air
	// Deliveries stay within the shard (row.deliver); nodes owned
	// elsewhere hear this frame as a ghost after the next window
	// barrier. The full audible list is kept either way so collision
	// footprints and Busy cover the whole neighborhood.
	t.full = row.full
	t.ber = row.ber
	t.deliver = row.deliver
	t.rangeFt = row.rangeFt
	t.corrupted.ResetCap(len(row.full))
	// Overlapping audible frames corrupt each other at the common
	// receivers (this includes the hidden-terminal case).
	for _, u := range m.active {
		if u.end <= now {
			continue
		}
		m.collide(t, u)
	}

	st.txStart = now
	st.txEnd = t.end
	st.everTx = true
	m.active = append(m.active, t)
	m.occupy(t)
	m.sink.FrameSent(src, t.kind, t.bytes)
	if m.tap != nil {
		// The tap keeps what it is handed (the engine until the next
		// barrier, a capture for good), so it gets a packet of its own.
		p, err := packet.DecodeTrusted(t.frame)
		if err != nil {
			panic(fmt.Sprintf("radio: frame from node %v undecodable at transmit: %v", src, err))
		}
		m.tap(src, p, air)
	}
	if row.boundary {
		p := m.geo.pts[src]
		off := len(m.arena)
		m.arena = append(m.arena, t.frame...)
		m.outbox = append(m.outbox, Ghost{
			Src:     src,
			Kind:    t.kind,
			Power:   power,
			Start:   now,
			End:     t.end,
			Seq:     m.ghostSeq,
			Frame:   m.arena[off:len(m.arena):len(m.arena)],
			X:       p.X,
			Y:       p.Y,
			RangeFt: row.rangeFt,
		})
		m.ghostSeq++
	}
	m.kernel.MustSchedule(air, t.finishFn)
	return air, nil
}

// TakeOutbox drains and returns the boundary frames transmitted since
// the last call, in transmit order. The engine calls it at each window
// barrier. The medium keeps the backing arrays, of the slice and of the
// frames in it, for its next boundary transmit, so the returned ghosts
// are valid only until the tile's next window runs; copy out what must
// outlive it (InsertGhost does).
func (m *Medium) TakeOutbox() []Ghost {
	out := m.outbox
	m.outbox = out[:0]
	m.arena = m.arena[:0]
	return out
}

// Outbox returns the pending boundary-crossing frames without draining
// them. The engine's workers read it after running a tile, only to tell
// the barrier's slot summary which outboxes the exchange must drain.
func (m *Medium) Outbox() []Ghost { return m.outbox }

// InsertGhost replays a boundary frame from another shard into this
// shard's channel: it occupies the air over [Start, End) for carrier
// sensing, corrupts and is corrupted by overlapping frames exactly as a
// local transmission would, and delivers to this shard's audible nodes
// at its end-of-frame instant. The transmitter-side effects (FrameSent,
// the tap, the half-duplex bookkeeping) already happened on the owning
// shard and are not repeated. The conservative window bound guarantees
// End is not in the past at insertion time.
func (m *Medium) InsertGhost(g Ghost) error {
	if m.owned == nil {
		return fmt.Errorf("radio: ghost insertion on an unsharded medium")
	}
	if int(g.Src) >= m.n || m.owned[g.Src] {
		return fmt.Errorf("radio: ghost source %v is owned by this shard", g.Src)
	}
	row, err := m.linkRowFor(g.Power, g.Src)
	if err != nil {
		return err
	}
	if len(row.deliver) == 0 {
		return nil // inaudible here: no receiver and no carrier to sense
	}
	t := m.newTransmission()
	t.frame = append(t.frame[:0], g.Frame...)
	t.src = g.Src
	t.kind = g.Kind
	t.bytes = len(t.frame)
	t.start = g.Start
	t.end = g.End
	t.full = row.full
	t.ber = row.ber
	t.deliver = row.deliver
	t.rangeFt = row.rangeFt
	t.corrupted.ResetCap(len(row.full))
	// Unlike Transmit (whose frames always start "now"), a ghost starts
	// in the previous window, so overlap is a general interval test.
	for _, u := range m.active {
		if u.end <= t.start || u.start >= t.end {
			continue
		}
		m.collide(t, u)
	}
	m.active = append(m.active, t)
	m.occupy(t)
	if _, err := m.kernel.ScheduleAt(t.end, t.finishFn); err != nil {
		return fmt.Errorf("radio: ghost from %v: %w", g.Src, err)
	}
	return nil
}

func (m *Medium) finish(t *transmission) {
	// The frame is decoded at most once per delivery pass, through the
	// medium's reuse cache, and the decoded message shared by every
	// receiver. Handlers treat incoming packets as read-only and every
	// retained byte slice (payloads, bit vectors) is copied at the
	// storage boundary, so sharing and reuse are indistinguishable from
	// the per-receiver decode they replaced.
	var decoded packet.Packet
	for di, nd := 0, t.deliverLen(); di < nd; di++ {
		fi := t.deliverPos(di)
		r := t.full[fi]
		st := &m.nodes[r]
		if st.destroyed || !st.on || st.onSince > t.start {
			continue // radio off for part of the frame
		}
		if st.everTx && st.txEnd > t.start && st.txStart < t.end {
			continue // half-duplex: was transmitting during the frame
		}
		if t.corrupted.Contains(fi) {
			m.sink.FrameCollided(r, t.src, t.kind)
			continue
		}
		if m.kernel.Rand().Float64() >= m.frameSuccess(t.ber[fi], t.bytes*8) {
			continue // channel bit errors
		}
		if m.linkFault != nil {
			if drop := m.linkFault(t.src, r); drop > 0 &&
				(drop >= 1 || m.kernel.Rand().Float64() < drop) {
				continue // injected link fault
			}
		}
		if decoded == nil {
			var err error
			decoded, err = m.dec.Decode(t.frame)
			if err != nil {
				// The frame was produced by Encode at Send; failing
				// to decode it is an invariant violation, not a
				// channel condition — surface it instead of silently
				// dropping every delivery.
				panic(fmt.Sprintf("radio: frame from node %v undecodable at finish: %v", t.src, err))
			}
		}
		m.delivered++
		m.sink.FrameReceived(r, t.src, t.kind, t.bytes)
		if st.handler != nil {
			st.handler(decoded, RxMeta{From: t.src, To: r, Bytes: t.bytes, At: m.kernel.Now()})
		}
	}
	// Only now does t leave the active list, so a repair a handler above
	// triggered saw its row's arrays as lent. t ends at this instant, so
	// a transmit from a handler skipped it in collision marking.
	for i, u := range m.active {
		if u == t {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	m.recycle(t)
}

// successEntry is one slot of the frame-success memo. n is bits+1, so
// the zero entry matches no key.
type successEntry struct {
	ber uint64 // math.Float64bits of the link's bit-error rate
	n   int
	p   float64
}

// successSlotsPerMote sizes the memo from the motes a medium delivers
// to. A receiver hears a few dozen links, and a streaming sender repeats
// one (link, frame size) key per data packet, so few keys per mote are
// live at once. At 32 slots a mote a campaign of 16- to 64-mote cells
// calls math.Pow about 1.7 times as often as with 4 096 slots, in 12 KB
// to 48 KB instead of 96 KB per medium. At 16 it called math.Pow 2.8
// times as often, and campaign wall time read slower in 7 of 10 paired
// benchmark runs (EXPERIMENTS.md).
const successSlotsPerMote = 32

// maxSuccessBits caps the memo at 4 096 slots, 96 KB per medium: a
// table far smaller than the link count of a large deployment still
// hits, since a sender's keys repeat while it streams.
const maxSuccessBits = 12

// successTableBits returns log2 of the memo's slot count for a medium
// that delivers to motes motes: the smallest power of two of at least
// successSlotsPerMote slots a mote, capped at 1<<maxSuccessBits.
func successTableBits(motes int) uint {
	return min(uint(bits.Len(uint(successSlotsPerMote*motes-1))), maxSuccessBits)
}

// frameSuccess returns (1-ber)^bits, the probability that a frame of
// the given size survives the link's bit errors. The power is computed
// on a miss only and remembered, bit for bit, in a direct-mapped table
// keyed by the exact (ber, bits) pair. The table is one block per
// medium, made at the first delivery by makeSuccessTable — not a slice
// per link row, which mobility would rebuild with every row. Its size
// changes which keys are resident, never a returned value.
func (m *Medium) frameSuccess(ber float64, bits int) float64 {
	if m.success == nil {
		m.makeSuccessTable()
	}
	key := math.Float64bits(ber)
	e := &m.success[(key^uint64(bits))*0x9E3779B97F4A7C15>>m.successShift]
	if e.ber != key || e.n != bits+1 {
		*e = successEntry{ber: key, n: bits + 1, p: math.Pow(1-ber, float64(bits))}
	}
	return e.p
}

// makeSuccessTable sizes the memo by successTableBits from the motes
// this medium delivers to: the deployment, or the motes a shard owns.
// It takes a table of that size a released medium handed back, warm:
// an entry holds (1-ber)^bits under its exact key, a pure function of
// the key, so what an earlier run left there is what this run would
// compute.
func (m *Medium) makeSuccessTable() {
	motes := m.n
	if m.owned != nil {
		motes = 0
		for _, own := range m.owned {
			if own {
				motes++
			}
		}
	}
	b := successTableBits(motes)
	if t, ok := successPools[b].Get().(*[]successEntry); ok {
		m.success = *t
	} else {
		m.success = make([]successEntry, 1<<b)
	}
	m.successShift = 64 - b
}

// Release hands the medium's frame-success memo on, through a pool per
// table size, for a later medium's first delivery, once the run is
// over. The medium must not deliver again. A second Release does
// nothing.
func (m *Medium) Release() {
	if m.success == nil {
		return
	}
	t := m.success
	successPools[64-m.successShift].Put(&t)
	m.success = nil
}

// successPools holds released memos, indexed by log2 of their size.
var successPools [maxSuccessBits + 1]sync.Pool

// Deliveries returns the cumulative count of successful frame
// deliveries to this medium's nodes. It is a pure function of
// simulation state (every term in the delivery decision is), which is
// what lets the engine's load reports use per-period delivery deltas
// as a load signal without breaking determinism.
func (m *Medium) Deliveries() uint64 { return m.delivered }

// linkBER computes a directed link's bit-error rate: a floor near the
// transmitter rising exponentially to BERCeil at the communication
// range, times the link's noise factor (Medium.linkNoise). It depends
// only on immutable run state, so sparse and dense construction orders
// produce identical values.
func (g *Geometry) linkBER(dist, txRange, noise float64) float64 {
	frac := dist / txRange
	if frac > 1 {
		return 1
	}
	base := g.params.BERFloor * math.Exp(g.berLogSpan*frac*frac) * noise
	if base > 1 {
		base = 1
	}
	return base
}

// linkNoise returns a deterministic lognormal factor for the directed
// link (src, dst): a function of the seed and the two IDs only,
// independent of positions and event ordering.
func linkNoise(seed int64, src, dst packet.NodeID, sigma float64) float64 {
	h := splitmix64(uint64(seed) ^ uint64(src)<<32 ^ uint64(dst)<<16 ^ 0x9E3779B97F4A7C15)
	// Two uniforms via Box–Muller for one standard normal draw.
	u1 := float64(h>>11) / float64(1<<53)
	h2 := splitmix64(h)
	u2 := float64(h2>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	f := math.Exp(sigma * z)
	// Clamp so no link becomes absurdly good or bad.
	if f < 0.25 {
		f = 0.25
	}
	if f > 4 {
		f = 4
	}
	return f
}

// linkNoise returns the noise factor linkBER takes for (src, dst): 1
// without asymmetry, else the link's lognormal draw. A repaired row
// carries the factors of its surviving links, so under mobility only a
// newly audible link pays for the draw.
func (m *Medium) linkNoise(src, dst packet.NodeID) float64 {
	g := m.geo
	if g.params.AsymSigma <= 0 {
		return 1
	}
	return linkNoise(g.seed, src, dst, g.params.AsymSigma)
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

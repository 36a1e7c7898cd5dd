// Package metrics collects the quantities the paper's evaluation
// reports: completion time, per-node active radio time (with and
// without the initial idle-listening period), transmission/reception
// distributions by message class, per-minute traffic timelines,
// parent–child relationships, sender order, energy ledgers built from
// the Table 1 costs, and overlapping data senders (SenderWindows).
//
// A Collector plugs into the simulation as both the radio traffic sink
// and the node observer.
package metrics

import (
	"fmt"
	"sort"
	"time"

	"mnp/internal/energy"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/topology"
)

// Config parameterizes a collector.
type Config struct {
	// Layout is required for location-based reports.
	Layout *topology.Layout
	// Airtime converts a frame size to channel occupancy (use
	// Medium.Airtime).
	Airtime func(bytes int) time.Duration
	// Costs is the energy cost table; Table1 if zero.
	Costs energy.Costs
	// NeighborhoodRange (feet) is the R of the collector's
	// SenderWindows; 0 disables its overlap counts.
	NeighborhoodRange float64
}

type radioInterval struct {
	at time.Duration
	on bool
}

// numClasses sizes the per-class counters: packet.Class values are the
// small dense enum 1..4, so fixed arrays replace per-node maps on the
// per-frame accounting path.
const numClasses = int(packet.ClassData) + 1

type nodeStats struct {
	tx, rx, collided int
	txByClass        [numClasses]int
	rxByClass        [numClasses]int
	txAir            time.Duration
	rxAir            time.Duration
	radio            []radioInterval
	firstAdvHeard    time.Duration
	sawAdv           bool
	eepromReadBytes  int
	eepromWriteBytes int
	decodeOps        int
	gotCodeAt        time.Duration
	completed        bool
	parent           packet.NodeID
	hasParent        bool
	parentAtDone     packet.NodeID
	hasParentAtDone  bool
	// segTimes is made on the node's first completed segment; most
	// motes of a large fleet never complete one. Reads of a nil map
	// find nothing.
	segTimes map[int]time.Duration
}

// SenderEvent records a node becoming a sender.
type SenderEvent struct {
	At   time.Duration
	Node packet.NodeID
	Seg  int
}

// Collector accumulates observations. It is not safe for concurrent
// use (the DES is single-threaded).
type Collector struct {
	cfg   Config
	nodes []nodeStats
	// windows counts transmissions by class per minute of simulated
	// time, as a dense series grown on demand (simulated time is
	// monotone, so the row for the current minute is always the last).
	windows [][numClasses]int
	senders []SenderEvent

	now func() time.Duration

	// Sender overlaps: each data frame's (inFlight), summed over the run.
	inFlight     *SenderWindows
	near, twoHop int

	// radioChunk holds the first intervals of motes yet to report a
	// radio state: a mote's first RadioState takes one slot from it
	// instead of allocating, and most motes of a large fleet never
	// report a second. radioCarved counts the slots taken so far and
	// sizes the next chunk, so a collector that sees few motes (a tile
	// of a large deployment, a campaign cell) buys few slots.
	radioChunk  []radioInterval
	radioCarved int
}

// Bounds on a radio-interval chunk, in intervals of 16 B.
const (
	minRadioChunk = 16
	maxRadioChunk = 1024
)

// SenderWindows is the one place that decides when data senders
// overlap. It holds the data frames in the air and counts, for each new
// one, the frames of other senders within R of its sender (near: they
// hear each other, so CSMA should keep them apart) and within 2R
// (two-hop, near included: some mote may hear both, the hidden-terminal
// pair sender selection aims at). Control frames are never counted.
type SenderWindows struct {
	layout *topology.Layout
	r      float64
	live   []senderWindow
}

type senderWindow struct {
	id    packet.NodeID
	until time.Duration
}

// Overlap is what one data frame met in the air; Peer is the sender of
// the last near frame.
type Overlap struct {
	Near, TwoHop int
	Peer         packet.NodeID
}

// NewSenderWindows builds a tracker over layout with range r in feet,
// or nil, which counts nothing, when r is not positive.
func NewSenderWindows(layout *topology.Layout, r float64) *SenderWindows {
	if r <= 0 {
		return nil
	}
	return &SenderWindows{layout: layout, r: r}
}

// Sent records a frame of kind that src puts on the air at now for air
// and returns what it overlaps.
func (w *SenderWindows) Sent(src packet.NodeID, kind packet.Kind, now, air time.Duration) Overlap {
	var o Overlap
	if w == nil || packet.ClassOf(kind) != packet.ClassData {
		return o
	}
	live := w.live[:0]
	for _, sw := range w.live {
		if sw.until <= now {
			continue // off the air
		}
		live = append(live, sw)
		if d, err := w.layout.Distance(src, sw.id); err == nil && sw.id != src && d <= 2*w.r {
			o.TwoHop++
			if d <= w.r {
				o.Near, o.Peer = o.Near+1, sw.id
			}
		}
	}
	w.live = append(live, senderWindow{id: src, until: now + air})
	return o
}

// NewCollector builds a collector for the given layout.
func NewCollector(cfg Config, now func() time.Duration) (*Collector, error) {
	if cfg.Layout == nil || cfg.Airtime == nil || now == nil {
		return nil, fmt.Errorf("metrics: layout, airtime, and clock are required")
	}
	if cfg.Costs == (energy.Costs{}) {
		cfg.Costs = energy.Table1
	}
	return &Collector{
		cfg:      cfg,
		nodes:    make([]nodeStats, cfg.Layout.N()),
		now:      now,
		inFlight: NewSenderWindows(cfg.Layout, cfg.NeighborhoodRange),
	}, nil
}

var _ node.Observer = (*Collector)(nil)

// --- radio.TrafficSink ---

// FrameSent implements radio.TrafficSink.
func (c *Collector) FrameSent(src packet.NodeID, kind packet.Kind, bytes int) {
	minute := int(c.now() / time.Minute)
	st := &c.nodes[src]
	st.tx++
	class := packet.ClassOf(kind)
	st.txByClass[class]++
	air := c.cfg.Airtime(bytes)
	st.txAir += air
	for minute >= len(c.windows) {
		c.windows = append(c.windows, [numClasses]int{})
	}
	c.windows[minute][class]++

	o := c.inFlight.Sent(src, kind, c.now(), air)
	c.near += o.Near
	c.twoHop += o.TwoHop
}

// FrameReceived implements radio.TrafficSink.
func (c *Collector) FrameReceived(dst, src packet.NodeID, kind packet.Kind, bytes int) {
	st := &c.nodes[dst]
	st.rx++
	st.rxByClass[packet.ClassOf(kind)]++
	st.rxAir += c.cfg.Airtime(bytes)
	if !st.sawAdv && packet.ClassOf(kind) == packet.ClassAdvertisement {
		st.sawAdv = true
		st.firstAdvHeard = c.now()
	}
}

// FrameCollided implements radio.TrafficSink.
func (c *Collector) FrameCollided(dst, src packet.NodeID, kind packet.Kind) {
	c.nodes[dst].collided++
}

// --- node.Observer ---

// NodeEvent implements node.Observer.
func (c *Collector) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	st := &c.nodes[id]
	switch ev.Kind {
	case node.EventGotCode:
		if !st.completed {
			st.completed = true
			st.gotCodeAt = at
			if st.hasParent {
				st.parentAtDone = st.parent
				st.hasParentAtDone = true
			}
		}
	case node.EventParentSet:
		st.parent = ev.Peer
		st.hasParent = true
	case node.EventBecameSender:
		c.senders = append(c.senders, SenderEvent{At: at, Node: id, Seg: ev.Seg})
	case node.EventGotSegment:
		if st.segTimes == nil {
			st.segTimes = make(map[int]time.Duration)
		}
		if _, ok := st.segTimes[ev.Seg]; !ok {
			st.segTimes[ev.Seg] = at
		}
	case node.EventDecodeOps:
		st.decodeOps += ev.Ops
	}
}

// RadioState implements node.Observer.
func (c *Collector) RadioState(id packet.NodeID, at time.Duration, on bool) {
	st := &c.nodes[id]
	if st.radio == nil {
		if len(c.radioChunk) == 0 {
			c.radioChunk = make([]radioInterval, min(max(c.radioCarved, minRadioChunk), maxRadioChunk))
		}
		// One slot, capped, so the mote's second interval grows it
		// exactly as an append to a fresh one-interval slice would.
		st.radio = c.radioChunk[:0:1]
		c.radioChunk = c.radioChunk[1:]
		c.radioCarved++
	}
	st.radio = append(st.radio, radioInterval{at: at, on: on})
}

// StorageOp implements node.Observer.
func (c *Collector) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	if write {
		c.nodes[id].eepromWriteBytes += bytes
		return
	}
	c.nodes[id].eepromReadBytes += bytes
}

// MergeShards combines per-shard collectors into one collector
// equivalent to what a single collector would have recorded. It merges
// by data, deterministically, never by goroutine arrival order. Every
// per-node statistic is written only by the shard owning that node
// (FrameSent keys on the source, FrameReceived/FrameCollided on the
// destination, node observations on the node itself), so per-node rows
// are taken verbatim from the owner named by ownerOf; the per-minute traffic windows are summed; sender
// events are merged by (At, Node); and overlap counts are summed: a
// tile's SenderWindows sees only its own senders, so pairs across
// tiles count nowhere (the invariant checker sees the merged stream).
func MergeShards(parts []*Collector, ownerOf []int) (*Collector, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("metrics: no collectors to merge")
	}
	n := len(parts[0].nodes)
	if len(ownerOf) != n {
		return nil, fmt.Errorf("metrics: owner map covers %d of %d nodes", len(ownerOf), n)
	}
	out := &Collector{
		cfg:   parts[0].cfg,
		nodes: make([]nodeStats, n),
		now:   parts[0].now,
	}
	for i := 0; i < n; i++ {
		o := ownerOf[i]
		if o < 0 || o >= len(parts) {
			return nil, fmt.Errorf("metrics: node %d owned by unknown shard %d", i, o)
		}
		out.nodes[i] = parts[o].nodes[i]
	}
	for _, p := range parts {
		if len(p.nodes) != n {
			return nil, fmt.Errorf("metrics: collector sizes differ (%d vs %d)", len(p.nodes), n)
		}
		for m := range p.windows {
			for m >= len(out.windows) {
				out.windows = append(out.windows, [numClasses]int{})
			}
			for c := 0; c < numClasses; c++ {
				out.windows[m][c] += p.windows[m][c]
			}
		}
		out.near += p.near
		out.twoHop += p.twoHop
	}
	// Each shard's sender log is already time-ordered; a k-way merge by
	// (At, Node) yields one global, deterministic order.
	cursors := make([]int, len(parts))
	for {
		best := -1
		for s, p := range parts {
			if cursors[s] >= len(p.senders) {
				continue
			}
			ev := p.senders[cursors[s]]
			if best < 0 {
				best = s
				continue
			}
			b := parts[best].senders[cursors[best]]
			if ev.At < b.At || (ev.At == b.At && ev.Node < b.Node) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out.senders = append(out.senders, parts[best].senders[cursors[best]])
		cursors[best]++
	}
	return out, nil
}

// --- reports ---

// ActiveRadioTime returns how long node id's radio was on during
// [from, until). The paper's headline metric uses from = 0; Figure 9's
// variant uses from = the time the node heard its first advertisement,
// removing the initial idle-listening period.
func (c *Collector) ActiveRadioTime(id packet.NodeID, from, until time.Duration) time.Duration {
	st := &c.nodes[id]
	var total time.Duration
	on := false
	var onSince time.Duration
	for _, iv := range st.radio {
		if iv.at > until {
			break
		}
		if iv.on && !on {
			on = true
			onSince = iv.at
		} else if !iv.on && on {
			on = false
			total += overlap(onSince, iv.at, from, until)
		}
	}
	if on {
		total += overlap(onSince, until, from, until)
	}
	return total
}

func overlap(aLo, aHi, bLo, bHi time.Duration) time.Duration {
	return max(0, min(aHi, bHi)-max(aLo, bLo))
}

// FirstAdvertisementHeard returns when node id first heard an
// advertisement-class message, and whether it ever did.
func (c *Collector) FirstAdvertisementHeard(id packet.NodeID) (time.Duration, bool) {
	st := &c.nodes[id]
	return st.firstAdvHeard, st.sawAdv
}

// Ledger builds node id's energy ledger for activity in [0, until):
// transmissions, receptions, idle listening (radio-on time not spent
// transmitting or receiving), and EEPROM traffic.
func (c *Collector) Ledger(id packet.NodeID, until time.Duration) *energy.Ledger {
	st := &c.nodes[id]
	l := energy.NewLedger(c.cfg.Costs)
	l.AddTx(st.tx)
	l.AddRx(st.rx)
	idle := c.ActiveRadioTime(id, 0, until) - st.txAir - st.rxAir
	l.AddIdle(idle)
	l.AddEEPROMWrite(st.eepromWriteBytes)
	l.AddEEPROMRead(st.eepromReadBytes)
	l.AddDecode(st.decodeOps)
	return l
}

// TxCount returns transmissions by node id (all classes, or one).
func (c *Collector) TxCount(id packet.NodeID) int { return c.nodes[id].tx }

// RxCount returns receptions by node id.
func (c *Collector) RxCount(id packet.NodeID) int { return c.nodes[id].rx }

// TxByClass returns node id's transmissions of one class.
func (c *Collector) TxByClass(id packet.NodeID, class packet.Class) int {
	if int(class) >= numClasses {
		return 0
	}
	return c.nodes[id].txByClass[class]
}

// RxByClass returns node id's receptions of one class.
func (c *Collector) RxByClass(id packet.NodeID, class packet.Class) int {
	if int(class) >= numClasses {
		return 0
	}
	return c.nodes[id].rxByClass[class]
}

// Collisions returns frames lost to collisions at node id.
func (c *Collector) Collisions(id packet.NodeID) int { return c.nodes[id].collided }

// GotCodeAt returns node id's completion time and whether it completed.
func (c *Collector) GotCodeAt(id packet.NodeID) (time.Duration, bool) {
	st := &c.nodes[id]
	return st.gotCodeAt, st.completed
}

// SegmentTime returns when node id completed segment seg.
func (c *Collector) SegmentTime(id packet.NodeID, seg int) (time.Duration, bool) {
	d, ok := c.nodes[id].segTimes[seg]
	return d, ok
}

// Parent returns the parent node id had when it completed (the arrow
// drawn in the paper's Figures 5–7).
func (c *Collector) Parent(id packet.NodeID) (packet.NodeID, bool) {
	st := &c.nodes[id]
	if st.hasParentAtDone {
		return st.parentAtDone, true
	}
	return st.parent, st.hasParent
}

// SenderOrder returns the distinct nodes in the order they first
// became senders (the numbering in Figures 5–7).
func (c *Collector) SenderOrder() []packet.NodeID {
	seen := make(map[packet.NodeID]bool, len(c.senders))
	var order []packet.NodeID
	for _, ev := range c.senders {
		if !seen[ev.Node] {
			seen[ev.Node] = true
			order = append(order, ev.Node)
		}
	}
	return order
}

// SenderEvents returns every became-sender event in time order.
func (c *Collector) SenderEvents() []SenderEvent {
	out := make([]SenderEvent, len(c.senders))
	copy(out, c.senders)
	return out
}

// ConcurrencyViolations returns the near overlaps: how many times a
// data frame went on the air while another sender's data frame within
// NeighborhoodRange was in flight.
func (c *Collector) ConcurrencyViolations() int { return c.near }

// TwoHopOverlaps returns the same count within twice NeighborhoodRange,
// where some mote may hear both senders (near overlaps included).
func (c *Collector) TwoHopOverlaps() int { return c.twoHop }

// MessageMix returns the per-minute (advertisement, request, data)
// transmission counts of Figure 12, one row per minute from minute 0
// through the last active minute.
func (c *Collector) MessageMix() [][3]int {
	out := make([][3]int, len(c.windows))
	for m, w := range c.windows {
		out[m] = [3]int{w[packet.ClassAdvertisement], w[packet.ClassRequest], w[packet.ClassData]}
	}
	return out
}

// CompletionTimes returns every completed node's completion time in
// ascending order.
func (c *Collector) CompletionTimes() []time.Duration {
	var out []time.Duration
	for i := range c.nodes {
		if c.nodes[i].completed {
			out = append(out, c.nodes[i].gotCodeAt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CompletedFractionAt returns the fraction of nodes holding the full
// program at time t (the propagation-progress curve of Figure 13).
func (c *Collector) CompletedFractionAt(t time.Duration) float64 {
	done := 0
	for i := range c.nodes {
		if c.nodes[i].completed && c.nodes[i].gotCodeAt <= t {
			done++
		}
	}
	return float64(done) / float64(len(c.nodes))
}

// Snapshot is the aggregate view of a run the telemetry layer exports:
// everything is summed over nodes, and durations are integrated over
// [0, until).
type Snapshot struct {
	// Nodes is the fleet size; Completed counts nodes holding the full
	// program.
	Nodes, Completed int
	// Tx, Rx, and Collisions are whole-network frame totals.
	Tx, Rx, Collisions int
	// TxByClass and RxByClass break the totals down by accounting class.
	TxByClass, RxByClass map[packet.Class]int
	// EEPROMReadBytes and EEPROMWriteBytes are whole-network flash traffic.
	EEPROMReadBytes, EEPROMWriteBytes int
	// DecodeOps counts GF(256) row operations spent decoding coded
	// frames (zero for the uncoded protocols).
	DecodeOps int
	// SenderEvents counts became-sender transitions (won competitions).
	SenderEvents int
	// ConcurrencyViolations counts same-neighborhood concurrent data sends.
	ConcurrencyViolations int
	// RadioOnTotal is radio-on time summed over nodes; SleepTotal is its
	// complement against Nodes × until.
	RadioOnTotal, SleepTotal time.Duration
	// SegmentCompletions maps segment ID to how many nodes completed it.
	SegmentCompletions map[int]int
}

// Snapshot aggregates the collector's per-node state over [0, until).
func (c *Collector) Snapshot(until time.Duration) Snapshot {
	s := Snapshot{
		Nodes:                 len(c.nodes),
		TxByClass:             make(map[packet.Class]int, numClasses),
		RxByClass:             make(map[packet.Class]int, numClasses),
		SenderEvents:          len(c.senders),
		ConcurrencyViolations: c.near,
		SegmentCompletions:    make(map[int]int),
	}
	for i := range c.nodes {
		st := &c.nodes[i]
		if st.completed {
			s.Completed++
		}
		s.Tx += st.tx
		s.Rx += st.rx
		s.Collisions += st.collided
		for class := 1; class < numClasses; class++ {
			s.TxByClass[packet.Class(class)] += st.txByClass[class]
			s.RxByClass[packet.Class(class)] += st.rxByClass[class]
		}
		s.EEPROMReadBytes += st.eepromReadBytes
		s.EEPROMWriteBytes += st.eepromWriteBytes
		s.DecodeOps += st.decodeOps
		s.RadioOnTotal += c.ActiveRadioTime(packet.NodeID(i), 0, until)
		for seg := range st.segTimes {
			s.SegmentCompletions[seg]++
		}
	}
	s.SleepTotal = time.Duration(len(c.nodes))*until - s.RadioOnTotal
	return s
}

// MeanActiveRadioTime averages ActiveRadioTime over all nodes.
func (c *Collector) MeanActiveRadioTime(until time.Duration) time.Duration {
	if len(c.nodes) == 0 {
		return 0
	}
	var sum time.Duration
	for i := range c.nodes {
		sum += c.ActiveRadioTime(packet.NodeID(i), 0, until)
	}
	return sum / time.Duration(len(c.nodes))
}

// MeanActiveRadioTimeAfterFirstAdv averages the Figure 9 variant:
// radio-on time counted only after the node heard its first
// advertisement.
func (c *Collector) MeanActiveRadioTimeAfterFirstAdv(until time.Duration) time.Duration {
	if len(c.nodes) == 0 {
		return 0
	}
	var sum time.Duration
	for i := range c.nodes {
		// firstAdvHeard stays 0 on a mote that never heard one.
		sum += c.ActiveRadioTime(packet.NodeID(i), c.nodes[i].firstAdvHeard, until)
	}
	return sum / time.Duration(len(c.nodes))
}

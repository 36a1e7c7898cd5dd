// Package invariant validates the paper's protocol invariants online,
// while a simulation executes, instead of post-hoc at verification
// time. A Checker plugs into the harness as a node.Observer (and,
// through radio.Medium.SetTap, as a frame tap) and watches five
// properties MNP's correctness argument rests on:
//
//  1. Write-once EEPROM: each (segment, packet) slot is written at
//     most once per program epoch ("we guarantee that each packet in a
//     segment is written to EEPROM only once"). An epoch ends when the
//     node erases its store for a new program version.
//  2. In-order segments: a node completes segments strictly in order
//     (RvdSegID advances by exactly one), so the received-segment ID
//     it would advertise is monotone within a program version.
//  3. Advertisement soundness: a node never advertises a segment it
//     does not fully hold in EEPROM.
//  4. Sleep discipline: a node in the sleep state never transmits,
//     and its radio is provably off strictly inside the sleep window.
//  5. Sender exclusivity: at most one active data sender per radio
//     neighborhood, within a fixed tolerance of 25 overlapping sends
//     per run that the paper itself concedes to time-varying links.
//     Overlaps are metrics.SenderWindows' near ones; its two-hop ones
//     are too common under every protocol for any such tolerance
//     (EXPERIMENTS.md, A1).
//  6. Rank monotonicity (coded dissemination): the (complete segments,
//     decode rank) pair a node advertises never decreases within a
//     program epoch — Gaussian elimination only accumulates. A reboot
//     resets the RAM-resident rank but not the EEPROM-backed segment
//     count.
//  7. Segment-image integrity (opt-in via SetImageCheck): every
//     completed segment's (or Deluge page's) stored payloads are
//     byte-identical to the source image.
//
// The checker keeps its own bounded trace ring; every violation
// carries an excerpt of the offending node's recent history so a
// failing chaos test points at the exact event sequence.
package invariant

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"mnp/internal/image"
	"mnp/internal/metrics"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/trace"
)

// Config parameterizes a Checker. Now is required; everything else is
// optional and disables the corresponding check when absent.
type Config struct {
	// Now supplies timestamps (use Kernel.Now).
	Now func() time.Duration
	// Senders, the checker's own tracker (never a collector's), decides
	// which data frames overlap; nil disables sender exclusivity.
	Senders *metrics.SenderWindows
	// OnViolation, when set, fires on every violation as it is
	// detected (e.g. to t.Fatalf immediately). Violations are recorded
	// either way.
	OnViolation func(Violation)
}

// senderOverlapBudget is the tolerated number of concurrent
// same-neighborhood data sends per run: the paper reports near-perfect
// but not perfect exclusion under time-varying links, and this matches
// the slack its testbed data shows.
const senderOverlapBudget = 25

// traceCap bounds the checker's trace ring, in entries.
const traceCap = 16384

// Violation is one detected invariant breach.
type Violation struct {
	At      time.Duration
	Node    packet.NodeID
	Rule    string
	Detail  string
	Excerpt []string // recent trace entries for the offending node
}

// Error formats the violation with its trace excerpt.
func (v Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %q violated at %v by node %v: %s", v.Rule, v.At, v.Node, v.Detail)
	if len(v.Excerpt) > 0 {
		b.WriteString("\n  trace excerpt:")
		for _, line := range v.Excerpt {
			b.WriteString("\n    ")
			b.WriteString(line)
		}
	}
	return b.String()
}

// nodeState is the checker's model of one node.
type nodeState struct {
	epoch   int
	writes  map[int]int // slot key (seg<<16 | pkt) -> successful writes this epoch
	perSeg  map[int]int // segment -> distinct slots written this epoch
	lastSeg int         // last in-order completed segment this epoch
	state   string      // protocol state from EventStateChange ("" = unknown)
	asleep  bool
	sleepAt time.Duration
	// pendingRadioOn records a radio power-up observed while the node
	// was in the sleep state. Waking turns the radio on before the
	// state-change event lands, so the power-up is only a violation if
	// the node is still asleep at a strictly later instant.
	pendingRadioOn   bool
	pendingRadioOnAt time.Duration
	// rlncSegs/rlncRank track the last advertised coded-dissemination
	// progress for the rank-monotonicity check.
	rlncSegs int
	rlncRank int
}

// Checker validates invariants as observations arrive. It is not safe
// for concurrent use; in the DES all observations arrive on one
// goroutine.
type Checker struct {
	cfg        Config
	log        *trace.Log
	nodes      map[packet.NodeID]*nodeState
	violations []Violation

	overlaps int

	// Segment-image integrity hooks (nil = check disabled); see
	// SetImageCheck.
	imgExpected func(seg, pkt int) ([]byte, bool)
	imgStored   func(id packet.NodeID, seg, pkt int) []byte
}

// New builds a checker. Wire it as (part of) the node observer and,
// for the advertisement/sleep-transmit/sender checks, install
// PacketSent as the medium's tap.
func New(cfg Config) (*Checker, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("invariant: Now clock is required")
	}
	log, err := trace.NewLog(cfg.Now, trace.WithCap(traceCap))
	if err != nil {
		return nil, err
	}
	return &Checker{cfg: cfg, log: log, nodes: make(map[packet.NodeID]*nodeState)}, nil
}

var _ node.Observer = (*Checker)(nil)

func (c *Checker) state(id packet.NodeID) *nodeState {
	st, ok := c.nodes[id]
	if !ok {
		st = &nodeState{writes: make(map[int]int), perSeg: make(map[int]int)}
		c.nodes[id] = st
	}
	return st
}

const excerptLen = 12

func (c *Checker) excerpt(id packet.NodeID) []string {
	entries := c.log.NodeEntries(id)
	if len(entries) > excerptLen {
		entries = entries[len(entries)-excerptLen:]
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.String())
	}
	return out
}

func (c *Checker) violate(id packet.NodeID, rule, format string, args ...any) {
	v := Violation{
		At:      c.cfg.Now(),
		Node:    id,
		Rule:    rule,
		Detail:  fmt.Sprintf(format, args...),
		Excerpt: c.excerpt(id),
	}
	c.violations = append(c.violations, v)
	if c.cfg.OnViolation != nil {
		c.cfg.OnViolation(v)
	}
}

// resolvePendingRadio decides the fate of a radio power-up seen during
// sleep: legitimate if the node left the sleep state at the very same
// instant, a violation once a strictly later observation finds it
// still asleep.
func (c *Checker) resolvePendingRadio(id packet.NodeID, st *nodeState, now time.Duration) {
	if !st.pendingRadioOn {
		return
	}
	if !st.asleep {
		st.pendingRadioOn = false
		return
	}
	if now > st.pendingRadioOnAt {
		st.pendingRadioOn = false
		c.violate(id, "sleep-radio-off",
			"radio powered on at %v while in the sleep state entered at %v",
			st.pendingRadioOnAt, st.sleepAt)
	}
}

// NodeEvent implements node.Observer.
func (c *Checker) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	c.log.NodeEvent(id, at, ev)
	st := c.state(id)
	switch ev.Kind {
	case node.EventStateChange:
		st.state = ev.State
		wasAsleep := st.asleep
		st.asleep = ev.State == "sleep"
		if st.asleep && !wasAsleep {
			st.sleepAt = at
		}
		c.resolvePendingRadio(id, st, at)
	case node.EventGotSegment:
		c.resolvePendingRadio(id, st, at)
		if ev.Seg != st.lastSeg+1 {
			c.violate(id, "in-order-segments",
				"completed segment %d after segment %d (must advance by exactly one)",
				ev.Seg, st.lastSeg)
		}
		if ev.Seg > st.lastSeg {
			st.lastSeg = ev.Seg
		}
		c.checkSegmentImage(id, ev.Seg)
	case node.EventStoreErased:
		// New program epoch: write-once, segment order, and coded
		// progress restart.
		st.epoch++
		st.writes = make(map[int]int)
		st.perSeg = make(map[int]int)
		st.lastSeg = 0
		st.rlncSegs = 0
		st.rlncRank = 0
	case node.EventRebooted:
		// RAM state is gone; the protocol state is unknown until the
		// fresh instance reports one. EEPROM-derived state persists —
		// including completed segments — but the decode rank was RAM.
		st.state = ""
		st.asleep = false
		st.pendingRadioOn = false
		st.rlncRank = 0
	}
}

// RadioState implements node.Observer.
func (c *Checker) RadioState(id packet.NodeID, at time.Duration, on bool) {
	c.log.RadioState(id, at, on)
	st := c.state(id)
	c.resolvePendingRadio(id, st, at)
	if on && st.asleep {
		st.pendingRadioOn = true
		st.pendingRadioOnAt = at
	}
}

// StorageOp implements node.Observer.
func (c *Checker) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	c.log.StorageOp(id, write, seg, pkt, bytes)
	if !write {
		return
	}
	st := c.state(id)
	key := seg<<16 | pkt
	st.writes[key]++
	if st.writes[key] == 1 {
		st.perSeg[seg]++
	} else {
		c.violate(id, "write-once-eeprom",
			"EEPROM slot (seg %d, pkt %d) written %d times in program epoch %d",
			seg, pkt, st.writes[key], st.epoch)
	}
}

// PacketSent is the radio tap: it observes every transmitted frame in
// decoded form. Install with Medium.SetTap(checker.PacketSent).
func (c *Checker) PacketSent(src packet.NodeID, p packet.Packet, air time.Duration) {
	st := c.state(src)
	now := c.cfg.Now()
	c.resolvePendingRadio(src, st, now)
	if st.asleep {
		c.violate(src, "no-transmit-in-sleep",
			"transmitted a %v frame while in the sleep state entered at %v",
			p.Kind(), st.sleepAt)
	}
	if adv, ok := p.(*packet.Advertise); ok {
		c.checkAdvertise(src, st, adv)
	}
	if adv, ok := p.(*packet.RlncAdv); ok {
		c.checkRlncAdv(src, st, adv)
	}
	if adv, ok := p.(*packet.GossipAdv); ok {
		c.checkGossipAdv(src, st, adv)
	}
	// Sender exclusivity fires once, on the frame that passes the budget.
	o := c.cfg.Senders.Sent(src, p.Kind(), now, air)
	if c.overlaps <= senderOverlapBudget && c.overlaps+o.Near > senderOverlapBudget {
		c.violate(src, "single-sender-per-neighborhood",
			"%d same-neighborhood concurrent data sends exceed the budget of %d (latest overlaps node %v)",
			c.overlaps+o.Near, senderOverlapBudget, o.Peer)
	}
	c.overlaps += o.Near
}

// checkAdvertise validates that the advertiser fully holds every
// segment up to the one it advertises, using the geometry carried by
// the advertisement itself and the writes the checker has seen land in
// the node's EEPROM this epoch.
func (c *Checker) checkAdvertise(src packet.NodeID, st *nodeState, adv *packet.Advertise) {
	segID := int(adv.SegID)
	nominal := int(adv.SegNominal)
	total := int(adv.TotalPackets)
	if segID <= 0 || nominal <= 0 || total <= 0 {
		c.violate(src, "advertise-soundness",
			"advertisement with degenerate geometry (seg %d, nominal %d, total %d)",
			segID, nominal, total)
		return
	}
	if s, want := st.firstUnheld(segID, nominal, total); s > 0 {
		c.violate(src, "advertise-soundness",
			"advertised segment %d of program %d but holds %d/%d packets of segment %d",
			segID, adv.ProgramID, st.perSeg[s], want, s)
	}
}

// firstUnheld returns the first of segments 1..segs that the writes
// seen this epoch do not fill, in the geometry of nominal-packet
// segments over total packets, with the packet count it should hold
// (0 past the image's end); 0, 0 when every one is full. An empty
// geometry, Split's only error, holds no packets, so every segment is
// reported unheld.
func (st *nodeState) firstUnheld(segs, nominal, total int) (seg, want int) {
	g, _ := image.Split(total, nominal)
	for s := 1; s <= segs; s++ {
		if want := g.PacketsIn(s); want == 0 || st.perSeg[s] < want {
			return s, want
		}
	}
	return 0, 0
}

// checkRlncAdv validates coded-dissemination progress: the advertised
// (complete segments, rank) pair is lexicographically non-decreasing
// within a program epoch, and every advertised-complete segment is
// fully held in EEPROM (the coded analogue of advertise-soundness).
func (c *Checker) checkRlncAdv(src packet.NodeID, st *nodeState, adv *packet.RlncAdv) {
	segs, rank := int(adv.CompleteSegs), int(adv.Rank)
	if segs < st.rlncSegs || (segs == st.rlncSegs && rank < st.rlncRank) {
		c.violate(src, "rlnc-rank-monotone",
			"advertised (segments %d, rank %d) after (segments %d, rank %d) in program epoch %d",
			segs, rank, st.rlncSegs, st.rlncRank, st.epoch)
	}
	if segs > st.rlncSegs {
		st.rlncSegs, st.rlncRank = segs, rank
	} else if segs == st.rlncSegs && rank > st.rlncRank {
		st.rlncRank = rank
	}
	nominal, total := int(adv.SegPackets), int(adv.TotalPackets)
	if nominal <= 0 || total <= 0 {
		return // a bootstrap advertisement carries no geometry to check
	}
	if s, want := st.firstUnheld(segs, nominal, total); s > 0 {
		c.violate(src, "advertise-soundness",
			"advertised %d complete coded segments of program %d but holds %d/%d packets of segment %d",
			segs, adv.ProgramID, st.perSeg[s], want, s)
	}
}

// checkGossipAdv validates gossip beacons against the EEPROM writes the
// checker has observed — the rule that keeps blind-push gossip honest
// under churn. A beacon claiming CompleteSegs complete segments plus
// Have packets of the next one must be fully backed by stored slots,
// across crashes, reboots, and dissolving neighborhoods: the checker's
// write log models EEPROM, so it persists through reboots exactly like
// the state the beacon summarizes, and any node that resumes beaconing
// more than its flash holds is caught on the first frame.
func (c *Checker) checkGossipAdv(src packet.NodeID, st *nodeState, adv *packet.GossipAdv) {
	const rule = "advertisement-soundness-under-churn"
	segs, nominal, total := int(adv.CompleteSegs), int(adv.SegPackets), int(adv.TotalPackets)
	if adv.Segments == 0 || nominal <= 0 || total <= 0 {
		c.violate(src, rule,
			"beacon with degenerate geometry (segments %d, nominal %d, total %d)",
			adv.Segments, nominal, total)
		return
	}
	if segs > int(adv.Segments) {
		c.violate(src, rule,
			"beacon claims %d complete segments of a %d-segment image",
			segs, adv.Segments)
		return
	}
	if s, want := st.firstUnheld(segs, nominal, total); s > 0 {
		c.violate(src, rule,
			"beacon claims %d complete segments of program %d but holds %d/%d packets of segment %d",
			segs, adv.ProgramID, st.perSeg[s], want, s)
		return
	}
	if have := int(adv.Have); have > 0 {
		if segs >= int(adv.Segments) {
			c.violate(src, rule,
				"beacon claims %d packets past a complete %d-segment image",
				have, segs)
			return
		}
		if st.perSeg[segs+1] < have {
			c.violate(src, rule,
				"beacon claims %d packets of segment %d but holds %d",
				have, segs+1, st.perSeg[segs+1])
		}
	}
}

// SetImageCheck arms the segment-image-integrity rule: on every
// EventGotSegment the completed segment's stored payloads are compared
// byte-for-byte against the source image. expected returns the source
// payload of (seg, pkt) and false past the segment's end; stored
// returns the node's EEPROM payload for the slot. Both read the slot
// through the protocol's own geometry, so "segment" is whatever unit
// the protocol stores by: the experiment layer arms the rule for every
// protocol, Deluge's 48-packet pages included.
func (c *Checker) SetImageCheck(
	expected func(seg, pkt int) ([]byte, bool),
	stored func(id packet.NodeID, seg, pkt int) []byte,
) {
	c.imgExpected, c.imgStored = expected, stored
}

// checkSegmentImage verifies a freshly completed segment against the
// source image. A nil stored payload is skipped, not failed: in
// sharded runs observer replay happens at barriers, so a racing
// new-epoch erase can empty a slot between the completion event and
// this read.
func (c *Checker) checkSegmentImage(id packet.NodeID, seg int) {
	if c.imgExpected == nil || c.imgStored == nil {
		return
	}
	for pkt := 0; ; pkt++ {
		want, ok := c.imgExpected(seg, pkt)
		if !ok {
			return
		}
		got := c.imgStored(id, seg, pkt)
		if got == nil {
			continue
		}
		if !bytes.Equal(got, want) {
			c.violate(id, "segment-image-integrity",
				"segment %d packet %d differs from the source image (%d bytes stored, %d expected)",
				seg, pkt, len(got), len(want))
			return
		}
	}
}

// Overlaps returns the near overlaps observed (metrics.Overlap.Near);
// past 25 the run is a violation.
func (c *Checker) Overlaps() int { return c.overlaps }

// Violations returns every recorded violation in detection order.
func (c *Checker) Violations() []Violation {
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Err returns the first violation as an error, or nil if every
// invariant held.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	v := c.violations[0]
	if n := len(c.violations); n > 1 {
		return fmt.Errorf("%s\n  (+%d further violations)", v.Error(), n-1)
	}
	return fmt.Errorf("%s", v.Error())
}

// TB is the subset of *testing.T the test helpers need.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Check fails the test on the first recorded violation. Call it after
// the run completes; use Config.OnViolation for fail-fast behavior.
func (c *Checker) Check(t TB) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("%v", err)
	}
}

// Package gossip implements a GCP-style gossip code-propagation
// protocol (Busnel et al., "GCP: gossip-based code propagation for
// large-scale mobile wireless sensor networks"): every node
// periodically beacons how far its stored image extends, and any node
// that overhears a beacon lagging its own state pushes the missing
// segment's packets — no sender election, no request round trips, no
// per-neighbor state that a topology change could strand. That makes
// the exchange memoryless in exactly the way a mobile network needs:
// when a neighborhood dissolves and reforms, the next beacon pair
// re-establishes who serves whom from scratch.
//
// The push follows the rumor-mongering pattern: hearing a lagging
// beacon "infects" a holder, which keeps sweeping the needed segment's
// packets round-robin (paced by the density estimate shared with rlnc,
// so ten co-located servers aggregate to roughly one frame per
// interval); the infection "dies" when no lagging beacon has refreshed
// it for demandTTL — GCP's infect-and-die counter expressed in time.
// Segments pipeline strictly in order and every EEPROM slot is written
// once, so the MNP storage invariants hold unchanged; against MNP the
// protocol trades a broadcast premium (duplicates from blind pushes)
// for having no coordination state to lose under churn.
package gossip

import (
	"fmt"
	"time"

	"mnp/internal/bitvec"
	"mnp/internal/density"
	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Timer IDs.
const (
	timerAdvertise node.TimerID = iota + 1
	timerData
)

// The parameters used by the experiments.
const (
	// advInterval is the base beacon period; each beacon adds a uniform
	// delay in [0, advJitter) to desynchronize neighbors.
	advInterval = 2 * time.Second
	advJitter   = 500 * time.Millisecond
	// dataInterval paces the push sweep while an infection is live.
	dataInterval = 30 * time.Millisecond
	// demandTTL is how long one lagging beacon keeps this node pushing
	// — the infect-and-die horizon.
	demandTTL = 5 * time.Second
)

// Config tunes the protocol.
type Config struct {
	// Base marks the (single) source; Image is required there.
	Base  bool
	Image *image.Image
}

// Gossip is one node's protocol instance.
type Gossip struct {
	cfg Config
	rt  node.Runtime

	// Image geometry, RAM-resident: the base takes it from the image,
	// everyone else learns it from the first beacon heard (and
	// re-learns it the same way after a reboot). geom is zero until
	// then.
	programID  uint8
	geom       image.Geometry // the image's segments
	payloadLen int            // bytes per data payload
	tail       int            // bytes in the image's final packet

	completeSegs int            // segments fully stored
	missing      *bitvec.Vector // packets of segment completeSegs+1 not stored; nil until one is

	// Sender side: the infection. demandSeg is the lowest segment a
	// lagging neighbor needs, cursor the round-robin position of the
	// sweep (started at a random offset so concurrent servers
	// interleave instead of duplicating each other's packets).
	demandSeg   int // 0 = not infected
	demandUntil time.Duration
	cursor      int

	// peers caches the last beacon heard per neighbor, feeding the
	// server-density estimate that scales the push pace.
	peers density.Table

	out msgs
}

// msgs holds one message per kind, refilled for every frame of that
// kind: Runtime.Send encodes before it returns.
type msgs struct {
	adv  packet.GossipAdv
	data packet.GossipData
}

var _ node.Protocol = (*Gossip)(nil)

// New returns a Gossip instance.
func New(cfg Config) *Gossip {
	return &Gossip{cfg: cfg, peers: density.New(advInterval, advJitter)}
}

// Init implements node.Protocol.
func (g *Gossip) Init(rt node.Runtime) error {
	g.rt = rt
	rt.RadioOn() // beacon exchange needs everyone listening
	if !g.cfg.Base {
		return nil // geometry arrives with the first beacon
	}
	im := g.cfg.Image
	if im == nil {
		panic("gossip: base station requires an image")
	}
	g.programID, g.geom = im.ProgramID(), im.Geometry()
	g.payloadLen = im.PayloadSize()
	g.tail = im.Size() - (g.geom.Total()-1)*g.payloadLen
	if err := image.Preload(rt, im, g.geom); err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	g.completeSegs = g.geom.Units()
	rt.Complete()
	g.scheduleAdv()
	return nil
}

// known reports whether the mote has learned the image's geometry.
func (g *Gossip) known() bool { return g.geom.Units() > 0 }

// OnTimer implements node.Protocol.
func (g *Gossip) OnTimer(id node.TimerID) {
	switch id {
	case timerAdvertise:
		g.advTick()
	case timerData:
		g.dataTick()
	}
}

// OnPacket implements node.Protocol.
func (g *Gossip) OnPacket(p packet.Packet, from packet.NodeID) {
	switch pkt := p.(type) {
	case *packet.GossipAdv:
		g.onAdv(pkt)
	case *packet.GossipData:
		g.onData(pkt)
	}
}

// --- beacons / infection ---

func (g *Gossip) scheduleAdv() {
	d := advInterval + time.Duration(g.rt.Rand().Int63n(int64(advJitter)))
	g.rt.SetTimer(timerAdvertise, d)
}

func (g *Gossip) advTick() {
	if !g.known() {
		return
	}
	have := 0 // packets stored of segment completeSegs+1
	if g.missing != nil {
		have = g.missing.Len() - g.missing.Count()
	}
	adv := &g.out.adv
	*adv = packet.GossipAdv{
		Src:          g.rt.ID(),
		ProgramID:    g.programID,
		Segments:     uint8(g.geom.Units()),
		SegPackets:   uint8(g.geom.Unit()),
		TotalPackets: uint16(g.geom.Total()),
		PayloadLen:   uint8(g.payloadLen),
		Tail:         uint8(g.tail),
		CompleteSegs: uint8(g.completeSegs),
		Have:         uint8(have),
	}
	_ = g.rt.Send(adv)
	g.scheduleAdv()
}

// learn adopts the image geometry from the first beacon heard and
// resumes from what survived in EEPROM across a reboot: complete
// segments, plus the packets of the segment in progress (unlike rlnc,
// gossip stores each packet on reception, so partial segments persist
// too).
func (g *Gossip) learn(a *packet.GossipAdv) {
	// Any geometry but an image's would carve flash for packets no
	// frame can address.
	geom, err := image.NewGeometry(int(a.Segments), int(a.SegPackets), int(a.TotalPackets))
	if err != nil || a.PayloadLen == 0 {
		return
	}
	g.programID, g.geom = a.ProgramID, geom
	g.payloadLen = int(a.PayloadLen)
	g.tail = int(a.Tail)
	g.completeSegs, g.missing, _ = image.Resume(g.rt, geom, nil)
	if g.completeSegs == geom.Units() {
		g.rt.Complete()
	}
	g.scheduleAdv()
}

// dataPace is the inter-frame spacing while pushing: the base interval
// scaled by the number of co-located servers, plus jitter so equal
// estimates do not lockstep.
func (g *Gossip) dataPace() time.Duration {
	servers := g.peers.Servers(g.rt.Now(), g.demandSeg)
	base := time.Duration(servers) * dataInterval
	return base + time.Duration(g.rt.Rand().Int63n(int64(dataInterval)))
}

func (g *Gossip) onAdv(a *packet.GossipAdv) {
	if !g.known() {
		g.learn(a)
	}
	if !g.known() || a.ProgramID != g.programID {
		return
	}
	g.peers.Heard(a.Src, g.rt.Now(), int(a.CompleteSegs))
	if int(a.CompleteSegs) >= g.completeSegs {
		return // the neighbor is not behind us; nothing to push
	}
	// Infection: the neighbor's next segment is one we hold. Lower
	// segments preempt (the slowest neighbor pipelines first); beacons
	// needing a higher segment do not refresh the TTL, so a mixed
	// neighborhood cannot pin a server on its slowest segment forever.
	need := int(a.CompleteSegs) + 1
	until := g.rt.Now() + demandTTL
	switch {
	case g.demandSeg == 0 || need < g.demandSeg:
		g.demandSeg = need
		g.demandUntil = until
		g.cursor = int(g.rt.Rand().Int63n(int64(g.geom.PacketsIn(need))))
	case need == g.demandSeg && until > g.demandUntil:
		g.demandUntil = until
	}
	if !g.rt.TimerPending(timerData) {
		g.rt.SetTimer(timerData, time.Duration(g.rt.Rand().Int63n(int64(4*dataInterval))))
	}
}

// --- push side ---

func (g *Gossip) dataTick() {
	if g.demandSeg == 0 || g.demandSeg > g.completeSegs || g.rt.Now() >= g.demandUntil {
		g.demandSeg = 0 // the infection died
		return
	}
	g.pushNext(g.demandSeg)
	g.rt.SetTimer(timerData, g.dataPace())
}

// pushNext broadcasts the sweep's next packet of seg.
func (g *Gossip) pushNext(seg int) {
	k := g.geom.PacketsIn(seg)
	if g.cursor >= k {
		g.cursor = 0
	}
	payload := g.rt.Load(seg, g.cursor)
	if payload == nil {
		return // only complete segments are served
	}
	d := &g.out.data
	*d = packet.GossipData{
		Src:       g.rt.ID(),
		ProgramID: g.programID,
		Seg:       uint8(seg),
		Pkt:       uint8(g.cursor + 1),
		Payload:   payload,
	}
	_ = g.rt.Send(d)
	g.cursor++
}

// --- receive side ---

func (g *Gossip) onData(d *packet.GossipData) {
	if !g.known() || d.ProgramID != g.programID {
		return // geometry arrives with beacons
	}
	seg := int(d.Seg)
	if seg <= g.completeSegs {
		// Someone else is pushing a segment we already hold; if we are
		// pushing it too, back off to thin duplicate coverage.
		if seg == g.demandSeg && g.rt.TimerPending(timerData) {
			d := g.dataPace() + time.Duration(g.rt.Rand().Int63n(int64(2*dataInterval)))
			g.rt.SetTimer(timerData, d)
		}
		return
	}
	if seg != g.completeSegs+1 {
		return // segments pipeline strictly in order
	}
	i := int(d.Pkt) - 1
	k := g.geom.PacketsIn(seg)
	if i < 0 || i >= k {
		return
	}
	if g.missing == nil {
		v, err := bitvec.AllSet(k)
		if err != nil {
			return
		}
		g.missing = v
	}
	if !g.missing.Get(i) || g.rt.HasPacket(seg, i) {
		return // duplicate rumor
	}
	if err := g.rt.Store(seg, i, k, d.Payload); err != nil {
		return // flash fault: the sweep will bring the packet again
	}
	g.missing.Clear(i)
	if g.missing.None() {
		g.completeSegment(seg)
	}
}

// completeSegment advances the pipeline after the last packet of the
// in-progress segment is stored.
func (g *Gossip) completeSegment(seg int) {
	g.completeSegs = seg
	g.missing = nil
	g.rt.Event(node.Event{Kind: node.EventGotSegment, Seg: seg})
	if g.completeSegs == g.geom.Units() {
		g.rt.Complete()
	}
	// Beacon the new state promptly so the next hop's pipeline starts
	// without waiting out a full beacon period.
	g.rt.SetTimer(timerAdvertise, time.Duration(g.rt.Rand().Int63n(int64(advJitter))))
}

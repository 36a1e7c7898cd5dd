// Package xnp implements the XNP baseline: TinyOS 1.1's single-hop
// network reprogramming. The base station broadcasts the whole image
// packet by packet, then runs query rounds in which in-range nodes
// report their first missing packet and the base retransmits. Nodes
// out of the base station's radio range never receive the program —
// the limitation that motivates multihop protocols like MNP.
package xnp

import (
	"fmt"
	"time"

	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Timer IDs.
const (
	timerTxData node.TimerID = iota + 1
	timerQueryRound
	timerStatusReply
)

// The parameters used by the experiments.
const (
	// dataInterval paces the broadcast.
	dataInterval = 30 * time.Millisecond
	// queryInterval separates retransmission query rounds.
	queryInterval = 2 * time.Second
	// statusDelayMax bounds the receivers' random status-reply delay.
	statusDelayMax = 500 * time.Millisecond
	// maxQuietRounds is how many consecutive empty query rounds end the
	// repair phase.
	maxQuietRounds = 3
)

// Config tunes the baseline.
type Config struct {
	// Base marks the (single) source.
	Base bool
	// Image is required at the base.
	Image *image.Image
}

// XNP is one node's protocol instance.
type XNP struct {
	cfg Config
	rt  node.Runtime

	// Base side.
	nextSeq     int
	retransmits []uint16
	quietRounds int
	repairing   bool

	// The program: the base takes it from its image, receivers from
	// the first data frame heard.
	programID uint8
	geom      image.Geometry

	// Receiver side.
	have      []bool
	haveCount int
	statusDue bool

	out msgs
}

// msgs holds one message per kind, refilled for every frame of that
// kind: Runtime.Send encodes before it returns.
type msgs struct {
	data   packet.XnpData
	query  packet.XnpQueryStatus
	status packet.XnpStatus
}

var _ node.Protocol = (*XNP)(nil)

// New returns an XNP instance.
func New(cfg Config) *XNP {
	return &XNP{cfg: cfg}
}

// Init implements node.Protocol.
func (x *XNP) Init(rt node.Runtime) error {
	x.rt = rt
	rt.RadioOn() // XNP keeps the radio on throughout
	if !x.cfg.Base {
		return nil
	}
	if x.cfg.Image == nil {
		panic("xnp: base station requires an image")
	}
	im := x.cfg.Image
	x.programID, x.geom = im.ProgramID(), Geometry(im)
	if err := image.Preload(rt, im, x.geom); err != nil {
		return fmt.Errorf("xnp: %w", err)
	}
	rt.Complete()
	rt.SetTimer(timerTxData, dataInterval)
	return nil
}

// Geometry is XNP's flash layout of im: packets numbered flat across
// the image, stored in units of image.DefaultSegmentPackets. An image
// has packets, so Split cannot fail.
func Geometry(im *image.Image) image.Geometry {
	g, _ := image.Split(im.TotalPackets(), image.DefaultSegmentPackets)
	return g
}

// OnTimer implements node.Protocol.
func (x *XNP) OnTimer(id node.TimerID) {
	switch id {
	case timerTxData:
		x.txTick()
	case timerQueryRound:
		x.queryRound()
	case timerStatusReply:
		x.sendStatus()
	}
}

// OnPacket implements node.Protocol.
func (x *XNP) OnPacket(p packet.Packet, from packet.NodeID) {
	switch pkt := p.(type) {
	case *packet.XnpData:
		x.onData(pkt)
	case *packet.XnpQueryStatus:
		x.onQuery(pkt)
	case *packet.XnpStatus:
		x.onStatus(pkt)
	}
}

// --- base side ---

func (x *XNP) txTick() {
	if !x.cfg.Base {
		return
	}
	var seq int
	switch {
	case x.nextSeq < x.geom.Total():
		seq = x.nextSeq
		x.nextSeq++
	case len(x.retransmits) > 0:
		seq = int(x.retransmits[0])
		// Shift down rather than re-slice, so the next request reuses the room.
		x.retransmits = x.retransmits[:copy(x.retransmits, x.retransmits[1:])]
	default:
		// Broadcast pass done: start (or continue) query rounds.
		x.repairing = true
		x.rt.SetTimer(timerQueryRound, queryInterval)
		return
	}
	if payload := x.rt.Load(x.geom.Slot(seq)); payload != nil {
		d := &x.out.data
		*d = packet.XnpData{
			Src:       x.rt.ID(),
			ProgramID: x.programID,
			Seq:       uint16(seq),
			Total:     uint16(x.geom.Total()),
			Payload:   payload,
		}
		_ = x.rt.Send(d)
	}
	x.rt.SetTimer(timerTxData, dataInterval)
}

func (x *XNP) queryRound() {
	if !x.cfg.Base {
		return
	}
	if len(x.retransmits) > 0 {
		// Requests arrived during the round: serve them.
		x.quietRounds = 0
		x.rt.SetTimer(timerTxData, dataInterval)
		return
	}
	x.quietRounds++
	q := &x.out.query
	*q = packet.XnpQueryStatus{Src: x.rt.ID(), ProgramID: x.programID}
	_ = x.rt.Send(q)
	interval := queryInterval
	if x.quietRounds > maxQuietRounds {
		// In-range nodes look satisfied; keep probing slowly in case a
		// status reply was simply lost.
		interval *= 10
	}
	x.rt.SetTimer(timerQueryRound, interval)
}

func (x *XNP) onStatus(s *packet.XnpStatus) {
	if !x.cfg.Base || s.DestID != x.rt.ID() || s.Seq == packet.XnpStatusComplete {
		return
	}
	seq := s.Seq
	for _, r := range x.retransmits {
		if r == seq {
			return
		}
	}
	x.retransmits = append(x.retransmits, seq)
}

// --- receiver side ---

func (x *XNP) onData(d *packet.XnpData) {
	if x.cfg.Base {
		return
	}
	if x.have == nil {
		g, err := image.Split(int(d.Total), image.DefaultSegmentPackets)
		if err != nil {
			return
		}
		x.programID, x.geom = d.ProgramID, g
		x.have = make([]bool, g.Total())
		if _, _, x.haveCount = image.Resume(x.rt, g, x.have); x.haveCount == g.Total() {
			x.rt.Complete()
		}
	}
	if d.ProgramID != x.programID {
		return
	}
	seq := int(d.Seq)
	if seq >= x.geom.Total() || x.have[seq] {
		return
	}
	seg, pkt := x.geom.Slot(seq)
	if err := x.rt.Store(seg, pkt, x.geom.PacketsIn(seg), d.Payload); err != nil {
		return
	}
	x.have[seq] = true
	x.haveCount++
	if x.haveCount == x.geom.Total() {
		x.rt.Complete()
	}
}

func (x *XNP) onQuery(q *packet.XnpQueryStatus) {
	if x.cfg.Base || x.have == nil || x.haveCount == x.geom.Total() {
		return
	}
	if x.statusDue {
		return
	}
	x.statusDue = true
	delay := time.Duration(x.rt.Rand().Int63n(int64(statusDelayMax)))
	x.rt.SetTimer(timerStatusReply, delay)
}

func (x *XNP) sendStatus() {
	x.statusDue = false
	if x.have == nil || x.haveCount == x.geom.Total() {
		return
	}
	// Report up to statusBatch missing packets per round, one fix
	// request each (the MAC spaces the burst).
	const statusBatch = 8
	sent := 0
	for seq, ok := range x.have {
		if ok {
			continue
		}
		st := &x.out.status
		*st = packet.XnpStatus{
			Src:       x.rt.ID(),
			DestID:    0, // the base station
			ProgramID: x.programID,
			Seq:       uint16(seq),
		}
		if err := x.rt.Send(st); err != nil {
			return // MAC queue full; the next round retries
		}
		if sent++; sent == statusBatch {
			return
		}
	}
}

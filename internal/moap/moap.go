// Package moap implements the MOAP baseline (Stathopoulos et al.):
// multihop over-the-air programming with strictly hop-by-hop
// dissemination — a node must hold the entire image before serving
// others — a publish/subscribe handshake to limit concurrent senders,
// unicast NAK repair, and a sliding window for loss bookkeeping. The
// radio stays on throughout.
package moap

import (
	"fmt"
	"time"

	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Timer IDs.
const (
	timerPublish node.TimerID = iota + 1
	timerSubscribe
	timerTxData
	timerRxWatchdog
)

// The parameters used by the experiments.
const (
	// dataInterval paces image transmission.
	dataInterval = 30 * time.Millisecond
	// publishInterval separates publish announcements.
	publishInterval = 2 * time.Second
	// subscribeDelayMax bounds the random delay before subscribing.
	subscribeDelayMax = 500 * time.Millisecond
	// rxTimeout bounds the wait for the next packet before NAKing.
	rxTimeout = 2 * time.Second
	// window is the sliding-window size: packets more than window ahead
	// of the first missing packet are dropped (limited-RAM tracking).
	window = 32
	// maxNaks bounds consecutive unanswered NAKs before the receiver
	// abandons the transfer (a later publish restarts it).
	maxNaks = 8
)

// Config tunes the baseline.
type Config struct {
	// Base marks the seeding node.
	Base bool
	// Image is required at the base.
	Image *image.Image
}

// MOAP is one node's protocol instance.
type MOAP struct {
	cfg Config
	rt  node.Runtime

	// The program: the base takes it from its image, everyone else
	// from the first publish or data frame heard.
	programID uint8
	geom      image.Geometry
	complete  bool

	// Receiver side.
	have      []bool
	haveCount int
	fetching  bool
	source    packet.NodeID
	naks      int
	subDue    bool
	subTo     packet.NodeID

	// Sender side.
	serving  bool
	nextSeq  int
	resend   []uint16
	heardPub time.Duration

	out msgs
}

// msgs holds one message per kind, refilled for every frame of that
// kind: Runtime.Send encodes before it returns.
type msgs struct {
	pub  packet.MoapPublish
	sub  packet.MoapSubscribe
	data packet.MoapData
	nak  packet.MoapNak
}

// Geometry is MOAP's flash layout of im: packets numbered flat across
// the image, stored in units of image.DefaultSegmentPackets. An image
// has packets, so Split cannot fail.
func Geometry(im *image.Image) image.Geometry {
	g, _ := image.Split(im.TotalPackets(), image.DefaultSegmentPackets)
	return g
}

var _ node.Protocol = (*MOAP)(nil)

// New returns a MOAP instance.
func New(cfg Config) *MOAP {
	return &MOAP{cfg: cfg}
}

// Complete reports whether this node holds the whole image.
func (m *MOAP) Complete() bool { return m.complete }

// Init implements node.Protocol.
func (m *MOAP) Init(rt node.Runtime) error {
	m.rt = rt
	rt.RadioOn() // MOAP keeps the radio on throughout
	if !m.cfg.Base {
		return nil
	}
	if m.cfg.Image == nil {
		panic("moap: base station requires an image")
	}
	im := m.cfg.Image
	m.programID, m.geom = im.ProgramID(), Geometry(im)
	if err := image.Preload(rt, im, m.geom); err != nil {
		return fmt.Errorf("moap: %w", err)
	}
	m.becomeSource()
	return nil
}

func (m *MOAP) becomeSource() {
	m.complete = true
	m.rt.Complete()
	m.schedulePublish()
}

func (m *MOAP) schedulePublish() {
	jitter := time.Duration(m.rt.Rand().Int63n(int64(publishInterval)))
	m.rt.SetTimer(timerPublish, publishInterval/2+jitter)
}

// OnTimer implements node.Protocol.
func (m *MOAP) OnTimer(id node.TimerID) {
	switch id {
	case timerPublish:
		m.publishTick()
	case timerSubscribe:
		m.sendSubscribe()
	case timerTxData:
		m.txTick()
	case timerRxWatchdog:
		m.rxWatchdog()
	}
}

// OnPacket implements node.Protocol.
func (m *MOAP) OnPacket(p packet.Packet, from packet.NodeID) {
	switch pkt := p.(type) {
	case *packet.MoapPublish:
		m.onPublish(pkt)
	case *packet.MoapSubscribe:
		m.onSubscribe(pkt)
	case *packet.MoapData:
		m.onData(pkt)
	case *packet.MoapNak:
		m.onNak(pkt)
	}
}

// --- sender side ---

func (m *MOAP) publishTick() {
	if !m.complete || m.serving {
		return
	}
	// Link-local suppression: defer if a neighbor published recently.
	if m.heardPub > 0 && m.rt.Now()-m.heardPub < publishInterval {
		m.schedulePublish()
		return
	}
	pub := &m.out.pub
	*pub = packet.MoapPublish{
		Src:       m.rt.ID(),
		ProgramID: m.programID,
		Version:   1,
		Total:     uint16(m.geom.Total()),
	}
	_ = m.rt.Send(pub)
	m.schedulePublish()
}

func (m *MOAP) onSubscribe(s *packet.MoapSubscribe) {
	if !m.complete || s.DestID != m.rt.ID() || s.ProgramID != m.programID {
		return
	}
	if m.serving {
		return // current pass serves the new subscriber too
	}
	m.serving = true
	m.nextSeq = 0
	m.resend = m.resend[:0]
	m.rt.CancelTimer(timerPublish)
	m.rt.SetTimer(timerTxData, dataInterval)
}

func (m *MOAP) txTick() {
	if !m.serving {
		return
	}
	var seq int
	switch {
	case len(m.resend) > 0:
		// Repair traffic has priority: NAKs mean the window stalled.
		seq = int(m.resend[0])
		// Shift down rather than re-slice, so the next NAK reuses the room.
		m.resend = m.resend[:copy(m.resend, m.resend[1:])]
	case m.nextSeq < m.geom.Total():
		seq = m.nextSeq
		m.nextSeq++
	default:
		// Pass complete; linger in a short repair window via NAKs, then
		// resume publishing for further subscribers.
		m.serving = false
		m.schedulePublish()
		return
	}
	if payload := m.rt.Load(m.geom.Slot(seq)); payload != nil {
		d := &m.out.data
		*d = packet.MoapData{
			Src:       m.rt.ID(),
			ProgramID: m.programID,
			Seq:       uint16(seq),
			Total:     uint16(m.geom.Total()),
			Payload:   payload,
		}
		_ = m.rt.Send(d)
	}
	m.rt.SetTimer(timerTxData, dataInterval)
}

func (m *MOAP) onNak(n *packet.MoapNak) {
	if !m.complete || n.DestID != m.rt.ID() || n.ProgramID != m.programID {
		return
	}
	if int(n.Seq) >= m.geom.Total() {
		return
	}
	for _, r := range m.resend {
		if r == n.Seq {
			return
		}
	}
	m.resend = append(m.resend, n.Seq)
	if !m.serving {
		// Post-pass repair: reopen the data pump just for the repairs.
		m.serving = true
		m.nextSeq = m.geom.Total()
		m.rt.CancelTimer(timerPublish)
		m.rt.SetTimer(timerTxData, dataInterval)
	}
}

// --- receiver side ---

func (m *MOAP) onPublish(p *packet.MoapPublish) {
	if m.complete {
		m.heardPub = m.rt.Now() // suppression among publishers
		return
	}
	if m.have == nil && !m.learn(p.ProgramID, p.Total) {
		return
	}
	if m.complete || p.ProgramID != m.programID || m.fetching || m.subDue {
		return
	}
	m.subDue = true
	m.subTo = p.Src
	delay := time.Duration(m.rt.Rand().Int63n(int64(subscribeDelayMax)))
	m.rt.SetTimer(timerSubscribe, delay)
}

func (m *MOAP) sendSubscribe() {
	if !m.subDue || m.complete {
		m.subDue = false
		return
	}
	m.subDue = false
	sub := &m.out.sub
	*sub = packet.MoapSubscribe{
		Src:       m.rt.ID(),
		DestID:    m.subTo,
		ProgramID: m.programID,
	}
	_ = m.rt.Send(sub)
	m.fetching = true
	m.source = m.subTo
	m.naks = 0
	m.rt.SetTimer(timerRxWatchdog, rxTimeout)
}

// learn adopts the program a publish or data frame names, and reports
// whether its size is one an image can have. A rebooted mote resumes
// from the packets its flash holds, and serves if it holds them all.
func (m *MOAP) learn(programID uint8, total uint16) bool {
	g, err := image.Split(int(total), image.DefaultSegmentPackets)
	if err != nil {
		return false
	}
	m.programID, m.geom = programID, g
	m.have = make([]bool, g.Total())
	if _, _, m.haveCount = image.Resume(m.rt, g, m.have); m.haveCount == g.Total() {
		m.becomeSource()
	}
	return true
}

func (m *MOAP) firstMissing() int {
	for seq, ok := range m.have {
		if !ok {
			return seq
		}
	}
	return -1
}

func (m *MOAP) onData(d *packet.MoapData) {
	if m.complete {
		return
	}
	if m.have == nil && !m.learn(d.ProgramID, d.Total) {
		return
	}
	if d.ProgramID != m.programID {
		return
	}
	seq := int(d.Seq)
	if seq >= m.geom.Total() || m.have[seq] {
		return
	}
	first := m.firstMissing()
	if first >= 0 && seq >= first+window {
		// Outside the sliding window: cannot track it; demand the
		// window head instead.
		m.nakFirstMissing()
		return
	}
	seg, pkt := m.geom.Slot(seq)
	if err := m.rt.Store(seg, pkt, m.geom.PacketsIn(seg), d.Payload); err != nil {
		return
	}
	m.have[seq] = true
	m.haveCount++
	m.naks = 0
	if m.fetching {
		m.rt.SetTimer(timerRxWatchdog, rxTimeout)
	}
	if m.haveCount == m.geom.Total() {
		m.fetching = false
		m.rt.CancelTimer(timerRxWatchdog)
		m.becomeSource() // hop-by-hop: now a publisher
	}
}

func (m *MOAP) rxWatchdog() {
	if !m.fetching || m.complete {
		return
	}
	if m.naks >= maxNaks {
		// Give up; the next publish restarts the handshake.
		m.fetching = false
		return
	}
	m.nakFirstMissing()
	m.rt.SetTimer(timerRxWatchdog, rxTimeout)
}

func (m *MOAP) nakFirstMissing() {
	first := m.firstMissing()
	if first < 0 {
		return
	}
	m.naks++
	nak := &m.out.nak
	*nak = packet.MoapNak{
		Src:       m.rt.ID(),
		DestID:    m.source,
		ProgramID: m.programID,
		Seq:       uint16(first),
	}
	_ = m.rt.Send(nak)
}

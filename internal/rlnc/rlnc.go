// Package rlnc implements a rateless coded dissemination protocol:
// segments travel as random linear combinations over GF(256) of their
// packets, so any k innovative receptions — from any mix of senders —
// complete a k-packet segment. Receivers run incremental Gaussian
// elimination and advertise their decode rank; there is no
// MissingVector and no request round trip, which is exactly the
// machinery MNP's ReqCtr sender-selection phase exists to coordinate
// (see DESIGN.md §4j for where each approach wins).
//
// The protocol pipelines segments strictly in order, like MNP: a node
// only collects coded packets for segment completeSegs+1, and only
// serves segments it has fully decoded and stored, so the write-once /
// in-order EEPROM invariants hold unchanged.
package rlnc

import (
	"fmt"
	"slices"
	"time"

	"mnp/internal/density"
	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Timer IDs.
const (
	timerAdvertise node.TimerID = iota + 1
	timerData
	timerFlushRetry
)

// The parameters used by the experiments.
const (
	// advInterval is the base advertisement period; each advertisement
	// adds a uniform delay in [0, advJitter) to desynchronize
	// neighbors.
	advInterval = 2 * time.Second
	advJitter   = 500 * time.Millisecond
	// dataInterval paces coded-packet bursts while demand is live.
	dataInterval = 30 * time.Millisecond
	// demandTTL is how long one heard advertisement from a lagging
	// neighbor keeps this node transmitting coded packets.
	demandTTL = 5 * time.Second
)

// Config tunes the protocol.
type Config struct {
	// Base marks the (single) source; Image is required there.
	Base  bool
	Image *image.Image
}

// flushRetryDelay spaces retries of EEPROM writes that failed (e.g.
// under injected flash faults).
const flushRetryDelay = 100 * time.Millisecond

// RLNC is one node's protocol instance.
type RLNC struct {
	cfg Config
	rt  node.Runtime

	// Image geometry, RAM-resident: the base takes it from the image,
	// everyone else learns it from the first advertisement heard (and
	// re-learns it the same way after a reboot). geom is zero until
	// then.
	programID  uint8
	geom       image.Geometry // the image's segments
	payloadLen int            // bytes per coded payload
	tail       int            // bytes in the image's final packet

	completeSegs int // segments fully decoded and stored
	// dec decodes segment completeSegs+1 while decoding is set. Its
	// slab is the mote's decode RAM, kept and reset across segments
	// like enc's table.
	dec      decoder
	decoding bool
	flushSeg int // decoded segment mid-flush to EEPROM (0 = none)

	// Sender side: RAM cache of the segment currently being served, so
	// each coded packet costs one pass over the cached table instead of
	// k EEPROM reads.
	enc     encoder
	attempt uint32 // coded-frame counter; seeds the coefficient draws
	// coded holds a coded frame's coefficients then its payload; it is
	// refilled for every frame, as msgs is.
	coded []byte

	demandSeg   int // lowest segment a lagging neighbor needs (0 = none)
	demandUntil time.Duration

	// peers caches the last advertisement heard per neighbor, feeding
	// the server-density estimate that paces coded transmissions: ten
	// co-located servers each send at a tenth of the solo rate, keeping
	// the aggregate near one frame per dataInterval. Without this, a
	// dense neighborhood serving one straggler saturates the channel
	// and collisions stop the straggler's rank from ever advancing.
	peers density.Table

	out msgs
}

// msgs holds one message per kind, refilled for every frame of that
// kind: Runtime.Send encodes before it returns.
type msgs struct {
	adv  packet.RlncAdv
	data packet.RlncData
}

var _ node.Protocol = (*RLNC)(nil)

// New returns an RLNC instance.
func New(cfg Config) *RLNC {
	return &RLNC{cfg: cfg, peers: density.New(advInterval, advJitter)}
}

// Init implements node.Protocol.
func (r *RLNC) Init(rt node.Runtime) error {
	r.rt = rt
	rt.RadioOn() // rank exchange needs everyone listening
	if !r.cfg.Base {
		return nil // geometry arrives with the first advertisement
	}
	im := r.cfg.Image
	if im == nil {
		panic("rlnc: base station requires an image")
	}
	r.programID, r.geom = im.ProgramID(), im.Geometry()
	r.payloadLen = im.PayloadSize()
	r.tail = im.Size() - (r.geom.Total()-1)*r.payloadLen
	// A mote refuses a frame whose body overflows the length byte, so
	// an image whose coded frames cannot fit would never spread.
	widest := &packet.RlncData{Coeffs: make([]byte, r.geom.Unit()), Payload: make([]byte, r.payloadLen)}
	if _, err := packet.FrameKind(packet.Encode(widest)); err != nil {
		panic(fmt.Sprintf("rlnc: %d-packet segments of %d-byte payloads do not fit a frame: %v", r.geom.Unit(), r.payloadLen, err))
	}
	if err := image.Preload(rt, im, r.geom); err != nil {
		return fmt.Errorf("rlnc: %w", err)
	}
	r.completeSegs = r.geom.Units()
	rt.Complete()
	r.scheduleAdv()
	return nil
}

// known reports whether the mote has learned the image's geometry.
func (r *RLNC) known() bool { return r.geom.Units() > 0 }

// OnTimer implements node.Protocol.
func (r *RLNC) OnTimer(id node.TimerID) {
	switch id {
	case timerAdvertise:
		r.advTick()
	case timerData:
		r.dataTick()
	case timerFlushRetry:
		r.flushSegment()
	}
}

// OnPacket implements node.Protocol.
func (r *RLNC) OnPacket(p packet.Packet, from packet.NodeID) {
	switch pkt := p.(type) {
	case *packet.RlncAdv:
		r.onAdv(pkt)
	case *packet.RlncData:
		r.onData(pkt)
	}
}

// --- advertisement / demand ---

func (r *RLNC) scheduleAdv() {
	d := advInterval + time.Duration(r.rt.Rand().Int63n(int64(advJitter)))
	r.rt.SetTimer(timerAdvertise, d)
}

func (r *RLNC) advTick() {
	if !r.known() {
		return
	}
	rank := 0
	if r.decoding {
		rank = r.dec.rank
	}
	adv := &r.out.adv
	*adv = packet.RlncAdv{
		Src:          r.rt.ID(),
		ProgramID:    r.programID,
		Segments:     uint8(r.geom.Units()),
		SegPackets:   uint8(r.geom.Unit()),
		TotalPackets: uint16(r.geom.Total()),
		PayloadLen:   uint8(r.payloadLen),
		Tail:         uint8(r.tail),
		CompleteSegs: uint8(r.completeSegs),
		Rank:         uint8(rank),
	}
	_ = r.rt.Send(adv)
	r.scheduleAdv()
}

// learn adopts the image geometry from the first advertisement heard
// and resumes from the segments that survived in EEPROM across a
// reboot (RAM state is lost, flash is not).
func (r *RLNC) learn(a *packet.RlncAdv) {
	// Any geometry but an image's would size a decoder for a segment no
	// frame can complete.
	geom, err := image.NewGeometry(int(a.Segments), int(a.SegPackets), int(a.TotalPackets))
	if err != nil || a.PayloadLen == 0 {
		return
	}
	r.programID, r.geom = a.ProgramID, geom
	r.payloadLen = int(a.PayloadLen)
	r.tail = int(a.Tail)
	// A segment is stored only once decoded, so a partial one is a
	// flush a reboot cut short: decoding it again skips the held slots.
	r.completeSegs, _, _ = image.Resume(r.rt, geom, nil)
	if r.completeSegs == geom.Units() {
		r.rt.Complete()
	}
	r.scheduleAdv()
}

// dataPace is the inter-frame spacing while serving: the base interval
// scaled by the number of co-located servers, plus jitter so equal
// estimates do not lockstep.
func (r *RLNC) dataPace() time.Duration {
	servers := r.peers.Servers(r.rt.Now(), r.demandSeg)
	base := time.Duration(servers) * dataInterval
	return base + time.Duration(r.rt.Rand().Int63n(int64(dataInterval)))
}

func (r *RLNC) onAdv(a *packet.RlncAdv) {
	if !r.known() {
		r.learn(a)
	}
	if !r.known() || a.ProgramID != r.programID {
		return
	}
	r.peers.Heard(a.Src, r.rt.Now(), int(a.CompleteSegs))
	if int(a.CompleteSegs) >= r.completeSegs {
		return // the neighbor is not behind us; nothing to serve
	}
	// The neighbor's next segment is one we hold: register demand and
	// start (or keep) the coded burst, offset randomly so concurrent
	// servers interleave instead of colliding.
	need := int(a.CompleteSegs) + 1
	until := r.rt.Now() + demandTTL
	switch {
	case r.demandSeg == 0 || need < r.demandSeg:
		r.demandSeg = need
		r.demandUntil = until
	case need == r.demandSeg && until > r.demandUntil:
		r.demandUntil = until
	}
	// Advertisements needing a higher segment deliberately do not
	// refresh the TTL: the lower demand must be allowed to expire, or a
	// mixed neighborhood pins the sender on its slowest segment forever.
	if !r.rt.TimerPending(timerData) {
		r.rt.SetTimer(timerData, time.Duration(r.rt.Rand().Int63n(int64(4*dataInterval))))
	}
}

// --- sender side ---

func (r *RLNC) dataTick() {
	if r.demandSeg == 0 || r.demandSeg > r.completeSegs || r.rt.Now() >= r.demandUntil {
		r.demandSeg = 0
		return
	}
	r.sendCoded(r.demandSeg)
	r.rt.SetTimer(timerData, r.dataPace())
}

// sendCoded broadcasts one fresh random linear combination of seg.
func (r *RLNC) sendCoded(seg int) {
	k := r.geom.PacketsIn(seg)
	if r.enc.seg != seg {
		load := func(i int) []byte { return r.rt.Load(seg, i) }
		if !r.enc.fill(seg, k, r.payloadLen, load) {
			return // only complete segments are served
		}
	}
	r.attempt++
	if r.rt.QueueFull() {
		// Send would refuse the frame. The attempt is spent either way —
		// the coefficients are a function of it, not a draw — so only the
		// combine is spared.
		return
	}
	r.coded = slices.Grow(r.coded[:0], k+r.payloadLen)[:k+r.payloadLen]
	coeffs, payload := r.coded[:k:k], r.coded[k:]
	drawCoeffs(coeffs, r.rt.ID(), seg, r.attempt)
	r.enc.encode(payload, coeffs)
	d := &r.out.data
	*d = packet.RlncData{
		Src:       r.rt.ID(),
		ProgramID: r.programID,
		Seg:       uint8(seg),
		Coeffs:    coeffs,
		Payload:   payload,
	}
	_ = r.rt.Send(d)
}

// drawCoeffs fills dst with the coefficient vector of (src, seg,
// attempt): a splitmix64 stream keyed by the triple, each output laid
// down low byte first, so a frame's coefficients are reproducible from
// its header alone and two senders never draw identical combinations.
// An all-zero draw (probability 256^-k) degrades to a unit vector
// rather than a wasted frame.
func drawCoeffs(dst []byte, src packet.NodeID, seg int, attempt uint32) {
	s := uint64(src)<<40 ^ uint64(uint32(seg))<<32 ^ uint64(attempt)
	var drawn uint64 // OR of every byte stored
	for i := 0; i < len(dst); i += 8 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		if rest := len(dst) - i; rest < 8 {
			z &= 1<<(8*rest) - 1
		}
		putWord(dst[i:], z)
		drawn |= z
	}
	if drawn == 0 {
		dst[int(attempt)%len(dst)] = 1
	}
}

// --- receiver side ---

func (r *RLNC) onData(d *packet.RlncData) {
	if !r.known() || d.ProgramID != r.programID {
		return // geometry arrives with advertisements
	}
	seg := int(d.Seg)
	if seg <= r.completeSegs || seg == r.flushSeg {
		// Someone else is serving a segment we already decoded; if we
		// are serving it too, back off to thin duplicate coverage.
		if seg == r.demandSeg && r.rt.TimerPending(timerData) {
			d := r.dataPace() + time.Duration(r.rt.Rand().Int63n(int64(2*dataInterval)))
			r.rt.SetTimer(timerData, d)
		}
		return
	}
	if seg != r.completeSegs+1 || seg > r.geom.Units() {
		return // segments pipeline strictly in order
	}
	if !r.decoding {
		r.dec.reset(r.geom.PacketsIn(seg), r.payloadLen)
		r.decoding = true
	}
	ops, _ := r.dec.addRow(d.Coeffs, d.Payload)
	if r.dec.complete() {
		ops += r.dec.reduce()
	}
	if ops > 0 {
		r.rt.Event(node.Event{Kind: node.EventDecodeOps, Seg: seg, Ops: ops})
	}
	if r.dec.complete() {
		r.flushSeg = seg
		r.flushSegment()
	}
}

// flushSegment writes the decoded segment to EEPROM. Slots already
// present (a retry after a mid-flush write fault or reboot) are
// skipped, preserving write-once; a failed write re-arms a retry timer
// instead of losing the decoded data.
func (r *RLNC) flushSegment() {
	seg := r.flushSeg
	if seg == 0 || !r.decoding || !r.dec.complete() {
		return
	}
	for i, k := 0, r.geom.PacketsIn(seg); i < k; i++ {
		if r.rt.HasPacket(seg, i) {
			continue
		}
		payload := r.dec.packet(i)
		if r.geom.Seq(seg, i) == r.geom.Total()-1 {
			payload = payload[:r.tail]
		}
		if err := r.rt.Store(seg, i, k, payload); err != nil {
			r.rt.SetTimer(timerFlushRetry, flushRetryDelay)
			return
		}
	}
	r.flushSeg = 0
	r.decoding = false
	r.completeSegs = seg
	r.rt.Event(node.Event{Kind: node.EventGotSegment, Seg: seg})
	if r.completeSegs == r.geom.Units() {
		r.rt.Complete()
	}
	// Advertise the new state promptly so the next hop's pipeline
	// starts without waiting out a full advertisement period.
	r.rt.SetTimer(timerAdvertise, time.Duration(r.rt.Rand().Int63n(int64(advJitter))))
}

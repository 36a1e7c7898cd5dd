// Package deluge implements the Deluge baseline (Hui & Culler,
// SenSys 2004) at the fidelity the paper's comparison needs: a
// three-phase ADV/REQ/DATA handshake with Trickle-suppressed
// advertisements, fixed-size pages received strictly in order
// (pipelining), bit-vector loss tracking — and, crucially, a radio
// that never sleeps, which is the energy contrast MNP exploits.
package deluge

import (
	"fmt"
	"time"

	"mnp/internal/bitvec"
	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/trickle"
)

// DefaultPagePackets is Deluge's page size: 48 packets per page.
const DefaultPagePackets = 48

// maxRequests bounds consecutive re-requests for one page before the
// node falls back to maintenance.
const maxRequests = 8

// Timer IDs.
const (
	timerTrickleFire node.TimerID = iota + 1
	timerTrickleEnd
	timerTxData
	timerRequest
	timerRxWatchdog
)

// Deluge's published parameters adapted to the shared Mica-2 timing
// model; the advertisement timer is package trickle's.
const (
	// dataInterval paces packet transmission within a page.
	dataInterval = 30 * time.Millisecond
	// requestDelayMax bounds the random delay before requesting after
	// an advertisement (request suppression window).
	requestDelayMax = 500 * time.Millisecond
	// rxTimeout bounds the wait for page data before re-requesting.
	rxTimeout = 2 * time.Second
)

// Config tunes the baseline.
type Config struct {
	// Base marks the seeding node, whose EEPROM is preloaded.
	Base bool
	// Image is required at the base.
	Image *image.Image
}

// Geometry is Deluge's flash layout of im: pages of DefaultPagePackets
// packets, in the image's flat packet order. An image has packets, so
// Split cannot fail.
func Geometry(im *image.Image) image.Geometry {
	g, _ := image.Split(im.TotalPackets(), DefaultPagePackets)
	return g
}

// Deluge is one node's protocol instance.
type Deluge struct {
	cfg Config
	rt  node.Runtime
	tr  *trickle.Trickle

	// The program: the base takes it from its image, everyone else
	// from the first advertisement heard. geom is zero until then.
	programID uint8
	version   uint8
	geom      image.Geometry
	havePages int
	missing   *bitvec.Vector // page havePages+1

	// Receive side.
	fetching    bool
	fetchFrom   packet.NodeID
	requests    int
	reqPending  bool
	reqSuppress bool

	// Transmit side.
	txPage   int
	txVector *bitvec.Vector

	out msgs
}

// msgs holds one message per kind, refilled for every frame of that
// kind: Runtime.Send encodes before it returns.
type msgs struct {
	adv  packet.DelugeAdv
	req  packet.DelugeReq
	data packet.DelugeData
}

var _ node.Protocol = (*Deluge)(nil)

// New returns a Deluge instance.
func New(cfg Config) *Deluge {
	return &Deluge{cfg: cfg}
}

// HavePages returns the number of complete in-order pages held.
func (d *Deluge) HavePages() int { return d.havePages }

// Init implements node.Protocol.
func (d *Deluge) Init(rt node.Runtime) error {
	d.rt = rt
	rt.RadioOn() // Deluge never turns the radio off
	tr, err := trickle.New(trickle.Hooks{
		Rand:     rt.Rand(),
		SetFire:  func(dur time.Duration) { rt.SetTimer(timerTrickleFire, dur) },
		SetEnd:   func(dur time.Duration) { rt.SetTimer(timerTrickleEnd, dur) },
		Transmit: d.sendAdv,
	})
	if err != nil {
		return fmt.Errorf("deluge: %w", err)
	}
	d.tr = tr
	if d.cfg.Base {
		if d.cfg.Image == nil {
			panic("deluge: base station requires an image")
		}
		im := d.cfg.Image
		d.programID, d.version, d.geom = im.ProgramID(), 1, Geometry(im)
		if err := image.Preload(rt, im, d.geom); err != nil {
			return fmt.Errorf("deluge: %w", err)
		}
		d.havePages = d.geom.Units()
		rt.Complete()
	}
	d.tr.Start()
	return nil
}

// OnTimer implements node.Protocol.
func (d *Deluge) OnTimer(id node.TimerID) {
	switch id {
	case timerTrickleFire:
		d.tr.Fire()
	case timerTrickleEnd:
		d.tr.IntervalEnd()
	case timerTxData:
		d.txTick()
	case timerRequest:
		d.sendRequest()
	case timerRxWatchdog:
		d.rxWatchdog()
	}
}

// OnPacket implements node.Protocol.
func (d *Deluge) OnPacket(p packet.Packet, from packet.NodeID) {
	switch pkt := p.(type) {
	case *packet.DelugeAdv:
		d.onAdv(pkt)
	case *packet.DelugeReq:
		d.onReq(pkt)
	case *packet.DelugeData:
		d.onData(pkt)
	}
}

// known reports whether the mote has learned the program's geometry.
func (d *Deluge) known() bool { return d.geom.Units() > 0 }

func (d *Deluge) sendAdv() {
	if !d.known() {
		return
	}
	adv := &d.out.adv
	*adv = packet.DelugeAdv{
		Src:          d.rt.ID(),
		ProgramID:    d.programID,
		Version:      d.version,
		NumPages:     uint8(d.geom.Units()),
		HavePages:    uint8(d.havePages),
		PagePackets:  uint8(d.geom.Unit()),
		TotalPackets: uint16(d.geom.Total()),
	}
	_ = d.rt.Send(adv)
}

func (d *Deluge) onAdv(a *packet.DelugeAdv) {
	if !d.known() {
		g, err := image.NewGeometry(int(a.NumPages), int(a.PagePackets), int(a.TotalPackets))
		if err != nil {
			return
		}
		d.programID, d.version, d.geom = a.ProgramID, a.Version, g
		d.havePages, d.missing, _ = image.Resume(d.rt, g, nil)
		if d.havePages == g.Units() {
			d.rt.Complete()
		}
	}
	if a.ProgramID != d.programID {
		return
	}
	switch {
	case int(a.HavePages) == d.havePages:
		// Consistent: contributes to suppression.
		d.tr.Hear()
	case int(a.HavePages) > d.havePages:
		// Someone is ahead: inconsistency, and a download opportunity.
		d.tr.Reset()
		if !d.fetching && d.txVector == nil {
			d.scheduleRequest(a.Src)
		}
	default:
		// Someone is behind: inconsistency; our advertisement (soon,
		// thanks to the reset) will prompt their request.
		d.tr.Reset()
	}
}

func (d *Deluge) scheduleRequest(from packet.NodeID) {
	d.fetchFrom = from
	d.requests = 0
	d.reqPending = true
	d.reqSuppress = false
	delay := time.Duration(d.rt.Rand().Int63n(int64(requestDelayMax)))
	d.rt.SetTimer(timerRequest, delay)
}

func (d *Deluge) sendRequest() {
	if !d.reqPending {
		return
	}
	if d.reqSuppress {
		// Another node already requested our page from the same
		// neighborhood; wait for the data instead of duplicating the
		// request.
		d.reqSuppress = false
		d.beginFetch()
		return
	}
	page := d.havePages + 1
	if page > d.geom.Units() {
		d.reqPending = false
		return
	}
	d.ensureMissing()
	if d.missing == nil {
		// The advertised geometry was bogus (zero-size page); drop the
		// request rather than chase it.
		d.reqPending = false
		return
	}
	req := &d.out.req
	*req = packet.DelugeReq{
		Src:         d.rt.ID(),
		DestID:      d.fetchFrom,
		ProgramID:   d.programID,
		Page:        uint8(page),
		PagePackets: uint8(d.missing.Len()),
		Missing:     d.missing,
	}
	_ = d.rt.Send(req)
	d.requests++
	d.beginFetch()
}

func (d *Deluge) beginFetch() {
	d.reqPending = false
	d.fetching = true
	d.rt.SetTimer(timerRxWatchdog, rxTimeout)
}

func (d *Deluge) rxWatchdog() {
	if !d.fetching {
		return
	}
	if d.requests < maxRequests {
		d.reqPending = true
		d.reqSuppress = false
		d.sendRequest()
		return
	}
	// Give up for now; maintenance advertisements will retrigger.
	d.fetching = false
}

func (d *Deluge) ensureMissing() {
	want := d.geom.PacketsIn(d.havePages + 1)
	if d.missing != nil && d.missing.Len() == want {
		return
	}
	v, err := bitvec.AllSet(want)
	if err != nil {
		d.missing = nil
		return
	}
	d.missing = v
}

func (d *Deluge) onReq(r *packet.DelugeReq) {
	if !d.known() || r.ProgramID != d.programID {
		return
	}
	page := int(r.Page)
	if r.DestID != d.rt.ID() {
		// Overheard request: if it covers the page we were about to
		// request from the same area, suppress our duplicate.
		if d.reqPending && page == d.havePages+1 {
			d.reqSuppress = true
		}
		return
	}
	if page < 1 || page > d.havePages {
		return // cannot serve a page we do not hold
	}
	want := d.geom.PacketsIn(page)
	if d.txVector == nil || d.txPage != page {
		if d.txVector != nil && d.txPage != page {
			return // busy serving another page; requester will retry
		}
		v, err := bitvec.New(want)
		if err != nil {
			return
		}
		d.txPage = page
		d.txVector = v
		d.rt.SetTimer(timerTxData, dataInterval)
	}
	if r.Missing != nil && r.Missing.Len() == d.txVector.Len() {
		_ = d.txVector.Or(r.Missing)
	} else {
		d.txVector.SetAll()
	}
	// A request is an inconsistency in Trickle terms.
	d.tr.Reset()
}

func (d *Deluge) txTick() {
	if d.txVector == nil {
		return
	}
	pkt := d.txVector.First()
	if pkt < 0 {
		d.txVector = nil
		d.txPage = 0
		return
	}
	d.txVector.Clear(pkt)
	payload := d.rt.Load(d.txPage, pkt)
	if payload != nil {
		data := &d.out.data
		*data = packet.DelugeData{
			Src:       d.rt.ID(),
			ProgramID: d.programID,
			Page:      uint8(d.txPage),
			PacketID:  uint8(pkt),
			Payload:   payload,
		}
		_ = d.rt.Send(data)
	}
	d.rt.SetTimer(timerTxData, dataInterval)
}

func (d *Deluge) onData(pkt *packet.DelugeData) {
	if !d.known() || pkt.ProgramID != d.programID {
		return
	}
	page := int(pkt.Page)
	if page != d.havePages+1 {
		return // pages are taken strictly in order
	}
	d.ensureMissing()
	if d.missing == nil {
		return
	}
	id := int(pkt.PacketID)
	if id >= d.missing.Len() {
		return
	}
	if d.missing.Get(id) {
		if err := d.rt.Store(page, id, d.missing.Len(), pkt.Payload); err != nil {
			return
		}
		d.missing.Clear(id)
	}
	if d.fetching {
		d.rt.SetTimer(timerRxWatchdog, rxTimeout)
	}
	if d.missing.None() {
		d.completePage()
	}
}

func (d *Deluge) completePage() {
	d.havePages++
	d.missing = nil
	d.fetching = false
	d.requests = 0
	d.rt.CancelTimer(timerRxWatchdog)
	d.rt.Event(node.Event{Kind: node.EventGotSegment, Seg: d.havePages})
	if d.havePages == d.geom.Units() {
		d.rt.Complete()
	}
	// New state: reset the maintenance timer so neighbors learn fast.
	d.tr.Reset()
}

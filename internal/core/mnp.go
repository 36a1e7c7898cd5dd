// Package core implements MNP, the paper's contribution: a reliable
// multihop reprogramming protocol built around greedy sender selection,
// segment pipelining, bitmap-driven loss recovery, and aggressive radio
// sleeping.
//
// The protocol is a state machine (paper Figure 4) with states idle,
// download, advertise, forward, sleep and fail, plus the optional
// query/update repair states. It is written against node.Runtime and
// runs identically on the discrete-event harness and the goroutine
// runtime.
package core

import (
	"fmt"
	"time"

	"mnp/internal/bitvec"
	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
)

// State is the MNP state-machine state.
type State int

// Protocol states (Figure 4).
const (
	StateIdle State = iota + 1
	StateDownload
	StateAdvertise
	StateForward
	StateSleep
	StateFail
	StateQuery  // sender side of the optional repair phase
	StateUpdate // receiver side of the optional repair phase
)

var stateNames = map[State]string{
	StateIdle:      "idle",
	StateDownload:  "download",
	StateAdvertise: "advertise",
	StateForward:   "forward",
	StateSleep:     "sleep",
	StateFail:      "fail",
	StateQuery:     "query",
	StateUpdate:    "update",
}

// String returns the state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Timer IDs used with the runtime.
const (
	timerAdvertise node.TimerID = iota + 1
	timerDownloadWatchdog
	timerSleep
	timerForwardData
	timerQueryWait
	timerUpdateWait
	timerStartSignal
	timerIdleDuty
)

// startSignalRepeats is how many times a node re-gossips the reboot
// signal. The repeats are spread over several sleep periods so that
// neighbors sleeping through the first broadcast still catch one.
const startSignalRepeats = 3

// repairThreshold is the largest number of missing packets a receiver
// repairs through query/update rather than failing the segment.
const repairThreshold = 16

// Protocol timing. The paper's text lost these digits, so each value
// is a reconstruction; DESIGN.md §2 lists them with the other
// reconstructed constants.
const (
	// advertiseCount is K: advertisements sent in a round before the
	// forwarding decision.
	advertiseCount = 5
	// advertiseInterval is the base advertisement spacing; actual gaps
	// are uniform in [0.5, 1.5] of the current interval.
	advertiseInterval = 500 * time.Millisecond
	// maxAdvertiseInterval caps the exponential slow-down applied when
	// a round ends with no requesters.
	maxAdvertiseInterval = 64 * time.Second
	// dataInterval paces packet transmission within a segment.
	dataInterval = 30 * time.Millisecond
	// downloadTimeout bounds the wait for the next packet from the
	// parent before giving up (fail state).
	downloadTimeout = 3 * time.Second
	// sleepFactor scales the sleep duration relative to the expected
	// segment transmission time.
	sleepFactor = 1.0
)

// Energy extensions (Variant.IdleDutyCycle, Variant.BatteryAware).
const (
	// idleOnPeriod is the listen window of the idle duty cycle.
	idleOnPeriod = 500 * time.Millisecond
	// idleOffPeriod is the sleep window of the idle duty cycle: 25 %
	// listening before first contact.
	idleOffPeriod = 1500 * time.Millisecond
	// lowPower is the advertisement power level used when the battery
	// is below batteryLowWater.
	lowPower = radio.PowerWeak
	// batteryLowWater is the battery fraction below which lowPower is
	// used.
	batteryLowWater = 0.25
)

// Config tunes the protocol. The zero value (plus Base and Image at
// the base station) is the protocol the evaluation runs.
type Config struct {
	// Base marks the base station: its EEPROM is preloaded with Image
	// and it starts in the advertise state.
	Base bool
	// Image is the program to disseminate; required at the base,
	// ignored elsewhere (receivers learn the geometry from
	// advertisements).
	Image *image.Image

	// NoPipelining selects the basic protocol (§3.1.1): a node becomes
	// a source only once it holds the entire program. It is the only
	// path to that protocol, which TestNoPipelining* and the fuzz
	// target in fuzz_test.go pin.
	NoPipelining bool

	Variant
}

// Variant holds the switches the paper's evaluation turns: the
// ablations A1–A3 and the extensions A4–A5. The zero value is the
// protocol as the paper describes it.
type Variant struct {
	// NoSenderSelection disables the ReqCtr competition (ablation A1):
	// sources never concede to better-placed sources.
	NoSenderSelection bool
	// NoSleep keeps the radio on where the protocol would sleep
	// (ablation A2); the node still pauses its advertising.
	NoSleep bool
	// NoQueryUpdate drops the optional query/update repair phase for
	// a segment missing at most repairThreshold packets (ablation A3).
	NoQueryUpdate bool

	// IdleDutyCycle enables the paper's S-MAC-style suggestion for
	// removing initial idle listening (A5): a node that has not yet
	// heard any advertisement duty-cycles its radio in the idle state,
	// listening for idleOnPeriod and sleeping for idleOffPeriod, until
	// the propagation wave arrives.
	IdleDutyCycle bool
	// BatteryAware enables the §6 extension (A4): advertisements are
	// sent at lowPower when the battery is below batteryLowWater,
	// shrinking the follower set so that drained nodes lose the sender
	// election.
	BatteryAware bool
}

// MNP is one node's protocol instance.
type MNP struct {
	cfg Config
	rt  node.Runtime

	state State

	// The program being disseminated: the base takes it from its
	// image, everyone else from the first advertisement heard. geom is
	// zero until then.
	programID uint8
	geom      image.Geometry

	// Receiver side.
	rvdSeg    int            // highest segment held completely (my.RvdSegID)
	missing   *bitvec.Vector // MissingVector for segment rvdSeg+1 (persists across attempts)
	parent    packet.NodeID
	hasParent bool

	// Source side.
	advSeg      int // segment being advertised
	reqCtr      int
	requesters  map[packet.NodeID]bool // made on the first request served
	forward     *bitvec.Vector         // ForwardVector for advSeg
	advSent     int
	advInterval time.Duration

	dormant     bool
	waveSeen    bool
	rebooted    bool
	sawStartSig bool
	sigRepeats  int
	lastSigSent time.Duration
	basePower   int

	msgs *msgs // built on the first send
}

// msgs holds one message per kind, refilled for every frame of that
// kind: Runtime.Send encodes before it returns, so nothing queued
// points back here. It is built on the mote's first send, so a mote
// that never sends does not pay for it: on the 100 000-mote bench
// fleet, which stops with 7 % of its motes complete, embedding it
// costs 9 MB of peak RSS (207 → 216 MB) and 4 % more bytes allocated.
type msgs struct {
	adv    packet.Advertise
	req    packet.DownloadRequest
	start  packet.StartDownload
	data   packet.Data
	end    packet.EndDownload
	query  packet.Query
	repair packet.RepairRequest
	sig    packet.StartSignal
}

// out returns the mote's messages.
func (m *MNP) out() *msgs {
	if m.msgs == nil {
		m.msgs = new(msgs)
	}
	return m.msgs
}

var _ node.Protocol = (*MNP)(nil)

// New returns an MNP instance with the given configuration.
func New(cfg Config) *MNP {
	return &MNP{cfg: cfg}
}

// State returns the current protocol state (for tests and metrics).
func (m *MNP) State() State { return m.state }

// ReqCtr returns the current requester count (for tests).
func (m *MNP) ReqCtr() int { return m.reqCtr }

// RvdSeg returns the highest completely received segment.
func (m *MNP) RvdSeg() int { return m.rvdSeg }

// Parent returns the current parent and whether one is set.
func (m *MNP) Parent() (packet.NodeID, bool) { return m.parent, m.hasParent }

// Rebooted reports whether the node acted on a StartSignal.
func (m *MNP) Rebooted() bool { return m.rebooted }

// Init implements node.Protocol.
func (m *MNP) Init(rt node.Runtime) error {
	m.rt = rt
	m.basePower = rt.TxPower()
	rt.RadioOn()
	if m.cfg.Base {
		if m.cfg.Image == nil {
			panic("core: base station requires an image")
		}
		im := m.cfg.Image
		m.programID, m.geom = im.ProgramID(), im.Geometry()
		if err := image.Preload(rt, im, m.geom); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		m.rvdSeg = m.geom.Units()
		rt.Complete()
		m.enterAdvertise()
		return nil
	}
	m.enterIdle()
	return nil
}

// OnTimer implements node.Protocol.
func (m *MNP) OnTimer(id node.TimerID) {
	switch id {
	case timerAdvertise:
		m.advertiseTick()
	case timerDownloadWatchdog:
		if m.state == StateDownload {
			m.enterFail()
		}
	case timerSleep:
		if m.state == StateSleep {
			m.wake()
		}
	case timerForwardData:
		m.forwardTick()
	case timerQueryWait:
		if m.state == StateQuery {
			m.finishSending()
		}
	case timerStartSignal:
		m.gossipStartSignal()
	case timerIdleDuty:
		m.idleDutyTick()
	case timerUpdateWait:
		if m.state == StateUpdate {
			m.enterFail()
		}
	}
}

// OnPacket implements node.Protocol.
func (m *MNP) OnPacket(p packet.Packet, from packet.NodeID) {
	if !m.waveSeen {
		// First contact: the propagation wave has arrived, so the idle
		// duty cycle (if any) ends and the radio listens continuously.
		m.waveSeen = true
		m.rt.CancelTimer(timerIdleDuty)
		if m.state == StateIdle {
			m.rt.RadioOn()
		}
	}
	switch pkt := p.(type) {
	case *packet.Advertise:
		m.onAdvertise(pkt)
	case *packet.DownloadRequest:
		m.onDownloadRequest(pkt)
	case *packet.StartDownload:
		m.onStartDownload(pkt)
	case *packet.Data:
		m.onData(pkt)
	case *packet.EndDownload:
		m.onEndDownload(pkt)
	case *packet.Query:
		m.onQuery(pkt)
	case *packet.RepairRequest:
		m.onRepairRequest(pkt)
	case *packet.StartSignal:
		m.onStartSignal(pkt)
	}
}

// --- state entries ---

func (m *MNP) setState(s State) {
	if m.state == s {
		return
	}
	m.state = s
	m.rt.Event(node.Event{Kind: node.EventStateChange, State: s.String()})
}

func (m *MNP) enterIdle() {
	m.rt.RadioOn()
	m.setState(StateIdle)
	// Before the propagation wave first reaches this node, optionally
	// duty-cycle the radio (the paper's S-MAC suggestion for removing
	// initial idle listening). After first contact the idle state
	// listens continuously, as the requester role requires.
	if m.cfg.IdleDutyCycle && !m.waveSeen {
		m.rt.SetTimer(timerIdleDuty, m.jitter(idleOnPeriod))
	}
}

// jitter returns a duration uniform in [0.5, 1.5] × d.
func (m *MNP) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(m.rt.Rand().Int63n(int64(d)+1))
}

func (m *MNP) idleDutyTick() {
	if m.state != StateIdle || m.waveSeen || !m.cfg.IdleDutyCycle {
		return
	}
	if m.rt.IsRadioOn() {
		m.rt.RadioOff()
		m.rt.SetTimer(timerIdleDuty, m.jitter(idleOffPeriod))
		return
	}
	m.rt.RadioOn()
	m.rt.SetTimer(timerIdleDuty, m.jitter(idleOnPeriod))
}

func (m *MNP) enterAdvertise() {
	m.advInterval = advertiseInterval
	m.resumeAdvertise()
}

// resumeAdvertise enters the advertise state without resetting the
// between-round backoff (used when waking from a fruitless-round
// dormancy, where the paper "advertises with reduced frequency").
func (m *MNP) resumeAdvertise() {
	m.rt.RadioOn()
	m.setState(StateAdvertise)
	m.advSeg = m.rvdSeg
	m.resetRound()
	m.scheduleAdvertise()
}

// resetRound clears the sender-selection round state: "whenever k
// attempts to advertise again, k must reset its ReqCtr value to zero
// and recalculate its requesters." The requester set is only ever
// probed, never walked, and an empty ForwardVector forwards nothing, so
// clearing both in place is a fresh round.
func (m *MNP) resetRound() {
	m.reqCtr = 0
	clear(m.requesters)
	m.advSent = 0
	if m.forward != nil {
		m.forward.ClearAll()
	}
}

func (m *MNP) scheduleAdvertise() {
	// Advertisements within a burst are spaced by a random interval in
	// [0.5, 1.5] × the base interval to avoid synchronized collisions;
	// the reduced advertisement frequency of a quiet network comes from
	// the growing dormancy gaps between bursts, not wider spacing.
	base := advertiseInterval
	d := base/2 + time.Duration(m.rt.Rand().Int63n(int64(base)))
	m.rt.SetTimer(timerAdvertise, d)
}

// enterDormant is the low-duty-cycle tail of the advertise state: the
// radio sleeps for the backed-off interval, then the node wakes and
// advertises another burst.
func (m *MNP) enterDormant() {
	m.rt.CancelTimer(timerAdvertise)
	m.resetRound()
	m.dormant = true
	m.setState(StateSleep)
	if !m.cfg.NoSleep {
		m.rt.RadioOff()
	}
	half := m.advInterval / 2
	d := half + time.Duration(m.rt.Rand().Int63n(int64(m.advInterval)))
	m.rt.SetTimer(timerSleep, d)
}

func (m *MNP) advertiseTick() {
	if m.state != StateAdvertise {
		return
	}
	if m.advSent >= advertiseCount {
		// End of round: forward if anyone asked; otherwise advertise
		// with reduced frequency. A fully updated node realizes the
		// reduction as radio-off dormancy between bursts — this is
		// where a node that already holds the code "spends most of the
		// time in sleeping state". A node still missing segments must
		// keep listening (it is a requester too, and powering off would
		// make it sleep through transfers it just requested), so it
		// stays awake and merely spaces its bursts out.
		if m.reqCtr > 0 {
			m.enterForward()
			return
		}
		m.advInterval *= 2
		if m.advInterval > maxAdvertiseInterval {
			m.advInterval = maxAdvertiseInterval
		}
		if m.rvdSeg == m.geom.Units() {
			m.enterDormant()
			return
		}
		m.resetRound()
		half := m.advInterval / 2
		m.rt.SetTimer(timerAdvertise, half+time.Duration(m.rt.Rand().Int63n(int64(m.advInterval))))
		return
	}
	adv := &m.out().adv
	*adv = packet.Advertise{
		Src:             m.rt.ID(),
		ProgramID:       m.programID,
		ProgramSegments: uint8(m.geom.Units()),
		SegID:           uint8(m.advSeg),
		SegNominal:      uint8(m.geom.Unit()),
		TotalPackets:    uint16(m.geom.Total()),
		ReqCtr:          clampUint8(m.reqCtr),
	}
	m.withAdvertisePower(func() {
		_ = m.rt.Send(adv)
	})
	m.advSent++
	m.scheduleAdvertise()
}

// withAdvertisePower runs fn with the battery-aware power level
// applied, restoring the base level afterwards.
func (m *MNP) withAdvertisePower(fn func()) {
	if m.cfg.BatteryAware && m.rt.Battery() < batteryLowWater {
		m.rt.SetTxPower(lowPower)
		defer m.rt.SetTxPower(m.basePower)
	}
	fn()
}

func (m *MNP) enterSleep() {
	m.rt.CancelTimer(timerAdvertise)
	m.resetRound()
	m.dormant = false
	// Losing the competition is a sign of nearby activity: advertise at
	// full frequency again once awake.
	m.advInterval = advertiseInterval
	m.setState(StateSleep)
	d := m.sleepDuration()
	if !m.cfg.NoSleep {
		m.rt.RadioOff()
	}
	m.rt.SetTimer(timerSleep, d)
}

// sleepDuration approximates the expected transmission time of one
// segment (the paper sleeps losers for about one code-transmission
// time so the winner can finish).
func (m *MNP) sleepDuration() time.Duration {
	pkts := m.geom.Unit()
	if pkts == 0 {
		pkts = image.DefaultSegmentPackets
	}
	base := time.Duration(float64(pkts) * sleepFactor * float64(dataInterval))
	// Jitter ±25% so sleepers do not wake in lockstep.
	quarter := base / 4
	return base - quarter + time.Duration(m.rt.Rand().Int63n(int64(2*quarter)+1))
}

func (m *MNP) wake() {
	dormant := m.dormant
	m.dormant = false
	if m.canAdvertise() {
		if dormant {
			m.resumeAdvertise() // keep the reduced frequency
			return
		}
		m.enterAdvertise()
		return
	}
	m.enterIdle()
}

// canAdvertise reports whether this node may act as a source: with
// pipelining, any node holding at least one segment; in the basic
// protocol, only nodes holding the entire program.
func (m *MNP) canAdvertise() bool {
	if !m.known() || m.rvdSeg == 0 {
		return false
	}
	if m.cfg.NoPipelining {
		return m.rvdSeg == m.geom.Units()
	}
	return true
}

func (m *MNP) enterFail() {
	// Fail is transient: release the EEPROM write handle and fall back
	// to idle. Stored packets and the MissingVector survive, so a
	// retried segment never rewrites EEPROM.
	m.rt.CancelTimer(timerDownloadWatchdog)
	m.rt.CancelTimer(timerUpdateWait)
	m.hasParent = false
	m.setState(StateFail)
	m.enterIdle()
}

func (m *MNP) enterDownload(parent packet.NodeID, segPackets int) {
	m.rt.CancelTimer(timerAdvertise)
	m.rt.RadioOn()
	m.parent = parent
	m.hasParent = true
	m.ensureMissing(segPackets)
	m.setState(StateDownload)
	m.rt.Event(node.Event{Kind: node.EventParentSet, Peer: parent, Seg: m.rvdSeg + 1})
	m.rt.SetTimer(timerDownloadWatchdog, downloadTimeout)
}

// ensureMissing materializes the MissingVector for segment rvdSeg+1.
// It persists across download attempts so each packet is written to
// EEPROM exactly once.
func (m *MNP) ensureMissing(segPackets int) {
	if m.missing != nil && m.missing.Len() == segPackets {
		return
	}
	v, err := bitvec.AllSet(segPackets)
	if err != nil {
		return
	}
	m.missing = v
}

func (m *MNP) enterForward() {
	m.rt.CancelTimer(timerAdvertise)
	m.setState(StateForward)
	m.rt.Event(node.Event{Kind: node.EventBecameSender, Seg: m.advSeg})
	start := &m.out().start
	*start = packet.StartDownload{
		Src:        m.rt.ID(),
		ProgramID:  m.programID,
		SegID:      uint8(m.advSeg),
		SegPackets: uint8(m.geom.PacketsIn(m.advSeg)),
	}
	_ = m.rt.Send(start)
	m.rt.SetTimer(timerForwardData, dataInterval)
}

func (m *MNP) forwardTick() {
	if m.state != StateForward {
		return
	}
	if m.forward == nil || m.forward.None() {
		m.endDownloadAndRepair()
		return
	}
	pkt := m.forward.First()
	m.forward.Clear(pkt)
	payload := m.rt.Load(m.advSeg, pkt)
	if payload != nil {
		m.sendData(uint8(m.advSeg), uint8(pkt), payload)
	}
	m.rt.SetTimer(timerForwardData, dataInterval)
}

// sendData sends one code packet of the segment being served.
func (m *MNP) sendData(seg, pkt uint8, payload []byte) {
	d := &m.out().data
	*d = packet.Data{
		Src:       m.rt.ID(),
		ProgramID: m.programID,
		SegID:     seg,
		PacketID:  pkt,
		Payload:   payload,
	}
	_ = m.rt.Send(d)
}

func (m *MNP) endDownloadAndRepair() {
	end := &m.out().end
	*end = packet.EndDownload{
		Src:       m.rt.ID(),
		ProgramID: m.programID,
		SegID:     uint8(m.advSeg),
	}
	_ = m.rt.Send(end)
	if !m.cfg.NoQueryUpdate {
		m.setState(StateQuery)
		q := &m.out().query
		*q = packet.Query{
			Src:       m.rt.ID(),
			ProgramID: m.programID,
			SegID:     uint8(m.advSeg),
		}
		_ = m.rt.Send(q)
		m.rt.SetTimer(timerQueryWait, m.queryWindow())
		return
	}
	m.finishSending()
}

// queryWindow is how long the sender waits for repair requests before
// concluding the repair phase.
func (m *MNP) queryWindow() time.Duration {
	return 8 * dataInterval
}

// finishSending ends a transmission round: the sender quits the
// competition temporarily by sleeping, giving other sources a chance.
func (m *MNP) finishSending() {
	m.resetRound()
	m.enterSleep()
}

// --- message handlers ---

// known reports whether the node has learned the program's geometry.
func (m *MNP) known() bool { return m.geom.Units() > 0 }

func (m *MNP) learnGeometry(a *packet.Advertise) {
	if m.known() {
		return
	}
	g, err := image.NewGeometry(int(a.ProgramSegments), int(a.SegNominal), int(a.TotalPackets))
	if err != nil {
		return
	}
	m.programID, m.geom = a.ProgramID, g
	m.rvdSeg, m.missing, _ = image.Resume(m.rt, g, nil)
	if m.rvdSeg == g.Units() {
		m.rt.Complete()
	}
	if m.rvdSeg > 0 && m.state == StateIdle && m.canAdvertise() {
		// A rebooted node recovered whole segments: resume the source
		// role it held before the crash.
		m.enterAdvertise()
	}
}

func (m *MNP) onAdvertise(a *packet.Advertise) {
	m.learnGeometry(a)
	if m.known() && a.ProgramID != m.programID {
		// A different program is circulating. If it is newer, abandon
		// ours and acquire it; otherwise let the stale advertiser
		// discover the new version the same way.
		if newerProgram(a.ProgramID, m.programID) {
			m.upgradeTo(a)
		}
		return
	}
	if !m.known() {
		return
	}
	// A node advertising after the reboot signal circulated was asleep
	// when the gossip passed; tell it (rate-limited).
	if m.sawStartSig && m.rt.Now()-m.lastSigSent > 2*time.Second {
		m.lastSigSent = m.rt.Now()
		m.sendStartSignal()
	}
	switch m.state {
	case StateIdle, StateAdvertise:
		// Requester role: ask for the next segment we need if the
		// advertiser has something beyond what we hold.
		if int(a.SegID) > m.rvdSeg && m.rvdSeg < m.geom.Units() {
			m.sendDownloadRequest(a)
		}
		if m.state != StateAdvertise {
			return
		}
		// Source competition (Figure 2b): concede to an advertiser
		// with more requesters, with node ID as the tie breaker, and
		// give priority to lower segments (§3.1.2 rule 4).
		if m.cfg.NoSenderSelection {
			return
		}
		if a.ReqCtr > 0 {
			lowerSeg := int(a.SegID) < m.advSeg
			sameSeg := int(a.SegID) == m.advSeg
			if lowerSeg || (sameSeg && Outranks(int(a.ReqCtr), a.Src, m.reqCtr, m.rt.ID())) {
				m.enterSleep()
			}
		}
	default:
		// Downloading, forwarding, repairing or sleeping: competition
		// messages are irrelevant.
	}
}

func (m *MNP) sendDownloadRequest(a *packet.Advertise) {
	want := m.rvdSeg + 1
	segPkts := m.geom.PacketsIn(want)
	if segPkts <= 0 || segPkts > bitvec.MaxBits {
		return
	}
	m.ensureMissing(segPkts)
	req := &m.out().req
	*req = packet.DownloadRequest{
		Src:        m.rt.ID(),
		DestID:     a.Src,
		ProgramID:  m.programID,
		SegID:      uint8(want),
		SegPackets: uint8(segPkts),
		EchoReqCtr: a.ReqCtr,
		Missing:    m.missing,
	}
	_ = m.rt.Send(req)
}

func (m *MNP) onDownloadRequest(r *packet.DownloadRequest) {
	if !m.known() || r.ProgramID != m.programID {
		return
	}
	if m.state == StateForward && r.DestID == m.rt.ID() && int(r.SegID) == m.advSeg {
		// Late joiner while we stream: fold its losses so it still
		// gets the packets it needs this round.
		m.foldRequest(r)
		return
	}
	if m.state != StateAdvertise {
		return
	}
	if r.DestID == m.rt.ID() {
		if int(r.SegID) > m.rvdSeg {
			return // we cannot serve a segment we do not hold
		}
		if int(r.SegID) < m.advSeg {
			// §3.1.2 rule 3: a request for a lower segment pulls the
			// advertised segment down; restart the round for it.
			m.advSeg = int(r.SegID)
			m.resetRound()
		}
		if int(r.SegID) == m.advSeg {
			if !m.requesters[r.Src] {
				if m.requesters == nil {
					m.requesters = make(map[packet.NodeID]bool)
				}
				m.requesters[r.Src] = true
				m.reqCtr++
			}
			m.foldRequest(r)
			// Demand means the network is updating: advertise at full
			// frequency again.
			m.advInterval = advertiseInterval
		}
		return
	}
	// Overheard request destined to another source k: learn of k's
	// standing (this is the hidden-terminal defence) and concede if k
	// is doing better; also yield to lower-segment activity.
	if m.cfg.NoSenderSelection {
		return
	}
	if r.EchoReqCtr > 0 {
		lowerSeg := int(r.SegID) < m.advSeg
		sameSeg := int(r.SegID) == m.advSeg
		if lowerSeg || (sameSeg && Outranks(int(r.EchoReqCtr), r.DestID, m.reqCtr, m.rt.ID())) {
			m.enterSleep()
		}
	}
}

// foldRequest ORs the requester's MissingVector into the
// ForwardVector: "an advertising node's ForwardVector is the union of
// the missing packets in the download requests the node has received."
func (m *MNP) foldRequest(r *packet.DownloadRequest) {
	segPkts := m.geom.PacketsIn(int(r.SegID))
	if m.forward == nil || m.forward.Len() != segPkts {
		v, err := bitvec.New(segPkts)
		if err != nil {
			return
		}
		m.forward = v
	}
	if r.Missing != nil && r.Missing.Len() == m.forward.Len() {
		_ = m.forward.Or(r.Missing)
		return
	}
	// A request without loss information asks for the whole segment.
	m.forward.SetAll()
}

func (m *MNP) onStartDownload(s *packet.StartDownload) {
	if !m.known() || s.ProgramID != m.programID {
		return
	}
	switch m.state {
	case StateIdle, StateAdvertise, StateUpdate:
		if int(s.SegID) == m.rvdSeg+1 {
			m.enterDownload(s.Src, int(s.SegPackets))
			return
		}
		if m.state == StateAdvertise && m.cfg.NoSenderSelection {
			// Ablation A1: without sender selection, a competing
			// source neither concedes nor stands down for a transfer.
			return
		}
		if m.state == StateAdvertise || m.state == StateUpdate {
			// A neighbor won with a segment we do not need: sleep
			// through its transmission.
			m.enterSleep()
		}
	case StateDownload:
		// Another sender starting our segment: packets are acceptable
		// from anyone; nothing to do.
	default:
	}
}

func (m *MNP) onData(d *packet.Data) {
	if !m.known() || d.ProgramID != m.programID {
		return
	}
	seg := int(d.SegID)
	switch m.state {
	case StateDownload, StateUpdate:
		if seg != m.rvdSeg+1 || m.missing == nil {
			return
		}
		pkt := int(d.PacketID)
		if pkt >= m.missing.Len() {
			return
		}
		if m.missing.Get(pkt) {
			if err := m.rt.Store(seg, pkt, m.missing.Len(), d.Payload); err != nil {
				return
			}
			m.missing.Clear(pkt)
		}
		if m.state == StateDownload {
			m.rt.SetTimer(timerDownloadWatchdog, downloadTimeout)
			return
		}
		// Update state: ask for the next missing packet, or finish.
		if m.missing.None() {
			m.completeSegment()
			return
		}
		m.sendRepairRequest()
	case StateIdle:
		// Data for the segment we need, from a transfer whose start we
		// missed: join it (the paper allows receiving from any sender
		// with a matching segment ID).
		if seg == m.rvdSeg+1 && m.geom.PacketsIn(seg) > 0 {
			m.enterDownload(d.Src, m.geom.PacketsIn(seg))
			m.onData(d)
		}
	case StateAdvertise:
		if seg == m.rvdSeg+1 {
			m.enterDownload(d.Src, m.geom.PacketsIn(seg))
			m.onData(d)
			return
		}
		if m.cfg.NoSenderSelection {
			return // ablation A1: keep competing through the stream
		}
		// A neighbor is streaming a segment we do not need.
		m.enterSleep()
	default:
	}
}

func (m *MNP) onEndDownload(e *packet.EndDownload) {
	if !m.known() || e.ProgramID != m.programID {
		return
	}
	if m.state != StateDownload || int(e.SegID) != m.rvdSeg+1 {
		return
	}
	if m.missing != nil && m.missing.None() {
		m.completeSegment()
		return
	}
	// Losses remain. The paper offers two choices: fail immediately, or
	// enter the query/update phase when the loss count is repairable.
	if e.Src == m.parent && !m.cfg.NoQueryUpdate &&
		m.missing != nil && m.missing.Count() <= repairThreshold {
		m.rt.CancelTimer(timerDownloadWatchdog)
		m.setState(StateUpdate)
		m.rt.SetTimer(timerUpdateWait, downloadTimeout)
		return
	}
	if e.Src == m.parent {
		m.enterFail()
	}
}

func (m *MNP) completeSegment() {
	m.rt.CancelTimer(timerDownloadWatchdog)
	m.rt.CancelTimer(timerUpdateWait)
	m.rvdSeg++
	m.missing = nil
	m.hasParent = false
	m.rt.Event(node.Event{Kind: node.EventGotSegment, Seg: m.rvdSeg})
	if m.rvdSeg == m.geom.Units() {
		m.rt.Complete()
	}
	if m.canAdvertise() {
		m.enterAdvertise()
		return
	}
	m.enterIdle()
}

func (m *MNP) onQuery(q *packet.Query) {
	if m.state != StateUpdate || !m.hasParent || q.Src != m.parent {
		return
	}
	if int(q.SegID) != m.rvdSeg+1 {
		return
	}
	m.sendRepairRequest()
}

func (m *MNP) sendRepairRequest() {
	if m.missing == nil {
		return
	}
	pkt := m.missing.First()
	if pkt < 0 {
		m.completeSegment()
		return
	}
	rr := &m.out().repair
	*rr = packet.RepairRequest{
		Src:       m.rt.ID(),
		DestID:    m.parent,
		ProgramID: m.programID,
		SegID:     uint8(m.rvdSeg + 1),
		PacketID:  uint8(pkt),
	}
	_ = m.rt.Send(rr)
	m.rt.SetTimer(timerUpdateWait, downloadTimeout)
}

func (m *MNP) onRepairRequest(r *packet.RepairRequest) {
	if m.state != StateQuery || r.DestID != m.rt.ID() {
		return
	}
	if int(r.SegID) != m.advSeg {
		return
	}
	payload := m.rt.Load(m.advSeg, int(r.PacketID))
	if payload == nil {
		return
	}
	m.sendData(r.SegID, r.PacketID, payload)
	m.rt.SetTimer(timerQueryWait, m.queryWindow())
}

func (m *MNP) onStartSignal(s *packet.StartSignal) {
	if m.sawStartSig {
		return
	}
	m.sawStartSig = true
	m.sigRepeats = startSignalRepeats
	// Gossip the signal outward, then reboot if we hold the code. The
	// gossip repeats so neighbors asleep right now still catch one.
	m.gossipStartSignal()
	if m.known() && m.rvdSeg == m.geom.Units() {
		m.rebooted = true
		m.rt.Event(node.Event{Kind: node.EventRebooted})
		// A rebooted node's dissemination duty is over; it keeps its
		// radio on as a gossip relay so neighbors that slept through
		// the flood still learn of the signal when they wake and
		// advertise (see onAdvertise).
		m.rt.CancelTimer(timerAdvertise)
		m.rt.CancelTimer(timerSleep)
		m.rt.CancelTimer(timerForwardData)
		m.rt.CancelTimer(timerQueryWait)
		m.dormant = false
		m.enterIdle()
	}
}

func (m *MNP) gossipStartSignal() {
	if m.sigRepeats <= 0 {
		return
	}
	m.sigRepeats--
	m.sendStartSignal()
	if m.sigRepeats > 0 {
		// Space the repeats about one sleep period apart with jitter.
		gap := m.sleepDuration() + time.Duration(m.rt.Rand().Int63n(int64(time.Second)))
		m.rt.SetTimer(timerStartSignal, gap)
	}
}

func (m *MNP) sendStartSignal() {
	s := &m.out().sig
	*s = packet.StartSignal{Src: m.rt.ID(), ProgramID: m.programID}
	_ = m.rt.Send(s)
}

// Reboot injects the external start signal at this node (used at the
// base station once dissemination is observed complete).
func (m *MNP) Reboot() {
	m.onStartSignal(&packet.StartSignal{Src: m.rt.ID(), ProgramID: m.programID})
}

// newerProgram compares program IDs with RFC 1982 serial-number
// arithmetic so version numbers may wrap the uint8 space: a is newer
// than b when (a-b) mod 256 lies in (0, 128).
func newerProgram(a, b uint8) bool {
	d := a - b
	return d != 0 && d < 128
}

// upgradeTo abandons the current program and starts acquiring the
// newer one advertised by a: all protocol state is reset and the old
// image's EEPROM space is erased (the flash must be rewritten anyway).
func (m *MNP) upgradeTo(a *packet.Advertise) {
	g, err := image.NewGeometry(int(a.ProgramSegments), int(a.SegNominal), int(a.TotalPackets))
	if err != nil {
		return
	}
	m.resetAllState()
	m.rt.EraseStore()
	m.programID, m.geom = a.ProgramID, g
	m.enterIdle()
	// Act on the advertisement that brought the news.
	m.onAdvertise(a)
}

// LoadProgram installs a new image directly on this node (the
// operator's serial cable at the base station) and starts advertising
// it. The rest of the network upgrades over the air.
func (m *MNP) LoadProgram(img *image.Image) error {
	if img == nil {
		return fmt.Errorf("core: nil image")
	}
	if m.known() && !newerProgram(img.ProgramID(), m.programID) {
		return fmt.Errorf("core: program %d is not newer than %d", img.ProgramID(), m.programID)
	}
	m.resetAllState()
	m.rt.EraseStore()
	m.programID, m.geom = img.ProgramID(), img.Geometry()
	if err := image.Preload(m.rt, img, m.geom); err != nil {
		return fmt.Errorf("core: loading program: %w", err)
	}
	m.rvdSeg = m.geom.Units()
	m.rt.Complete()
	m.enterAdvertise()
	return nil
}

// resetAllState cancels every timer and clears per-program state in
// preparation for a new program version.
func (m *MNP) resetAllState() {
	for _, id := range []node.TimerID{
		timerAdvertise, timerDownloadWatchdog, timerSleep,
		timerForwardData, timerQueryWait, timerUpdateWait, timerIdleDuty,
	} {
		m.rt.CancelTimer(id)
	}
	m.rvdSeg = 0
	m.missing = nil
	m.hasParent = false
	m.dormant = false
	m.resetRound()
	m.advInterval = advertiseInterval
}

// Outranks is the sender-selection order: source "other" (with
// otherCtr requesters) beats source "mine" (with myCtr requesters)
// when it has strictly more requesters, with the higher node ID
// breaking ties. The paper's no-deadlock argument rests on this being
// a strict total order over distinct (ReqCtr, ID) pairs: "the node
// with highest ReqCtr — with appropriate tie breaker on node ID —
// will succeed."
func Outranks(otherCtr int, otherID packet.NodeID, myCtr int, myID packet.NodeID) bool {
	if otherCtr != myCtr {
		return otherCtr > myCtr
	}
	return otherID > myID
}

func clampUint8(v int) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

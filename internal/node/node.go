// Package node is the mote runtime harness: it gives a protocol state
// machine a Runtime (timers, CSMA MAC, radio power control, EEPROM,
// randomness, completion reporting) and drives it from the simulation
// kernel. Protocol logic is written once against Runtime; the
// contract suite in internal/node/nodetest holds every runtime to the
// same semantics.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
)

// TimerID names a protocol timer. Each protocol defines its own
// constants, from 0 to MaxTimerID; a node keyes pending timers by ID,
// and setting an ID replaces any pending timer with that ID.
type TimerID int

// Runtime is the mote-facing API protocols program against.
type Runtime interface {
	// ID returns this node's address.
	ID() packet.NodeID
	// Now returns the current time since simulation start.
	Now() time.Duration
	// Rand returns the node's deterministic RNG.
	Rand() *rand.Rand

	// Send queues p for CSMA broadcast at the current transmit power.
	// The frame is encoded before Send returns, so the caller may reuse
	// p, and anything p points to, once it does. A frame refused for a
	// mote that is down or dead, or for a full queue, is never encoded;
	// one whose encoding the radio cannot carry (a body over 255 bytes)
	// is refused too, and the mote keeps sending.
	Send(p packet.Packet) error
	// QueueFull reports whether Send would refuse a frame for want of
	// room, so a protocol can skip building one that costs something.
	QueueFull() bool
	// SetTimer schedules OnTimer(id) after d, replacing any pending
	// timer with the same ID.
	SetTimer(id TimerID, d time.Duration)
	// CancelTimer cancels the pending timer with the given ID, if any.
	CancelTimer(id TimerID)
	// TimerPending reports whether a timer with the given ID is set.
	TimerPending(id TimerID) bool

	// RadioOn powers the radio up; RadioOff powers it down (the node
	// then neither sends, receives, nor carrier-senses).
	RadioOn()
	RadioOff()
	// IsRadioOn reports the radio state.
	IsRadioOn() bool
	// SetTxPower selects the TinyOS power level for subsequent sends.
	SetTxPower(level int)
	// TxPower returns the current power level.
	TxPower() int

	// Store writes a received packet payload to EEPROM. segPackets is
	// the segment's packet count, the size flash carves the segment at
	// on its first write; with 0 the segment grows as packets arrive.
	Store(seg, pkt, segPackets int, payload []byte) error
	// Load reads a payload back (nil if absent): a read-only view lent
	// by the store, valid and unchanged for as long as it is held.
	Load(seg, pkt int) []byte
	// HasPacket reports whether (seg, pkt) is stored, without the cost
	// of a read.
	HasPacket(seg, pkt int) bool
	// EraseStore releases the EEPROM, as the fail state does.
	EraseStore()

	// Complete reports that this node holds the entire program.
	Complete()
	// Battery returns the node's remaining battery fraction in [0, 1];
	// the §6 battery-aware extension keys advertisement power off it.
	Battery() float64
	// Event publishes a protocol observation to the metrics layer.
	Event(ev Event)
}

// Protocol is a dissemination state machine.
type Protocol interface {
	// Init starts the protocol; called once, before any events, and
	// again with a fresh instance when a crashed node reboots. An error
	// (a base that cannot store its image) fails the run, or at a
	// reboot leaves the mote dead.
	Init(rt Runtime) error
	// OnPacket delivers a received frame.
	OnPacket(p packet.Packet, from packet.NodeID)
	// OnTimer delivers a timer expiry.
	OnTimer(id TimerID)
}

// EventKind classifies protocol observations.
type EventKind int

// Protocol observation kinds.
const (
	EventStateChange EventKind = iota + 1
	EventParentSet
	EventGotSegment
	EventGotCode
	EventBecameSender
	EventRebooted
	EventStoreErased
	EventDecodeOps
)

// Event is a protocol observation routed to the Observer.
type Event struct {
	Kind  EventKind
	State string        // EventStateChange: new state name
	Seg   int           // EventGotSegment / EventBecameSender / EventDecodeOps: segment ID
	Peer  packet.NodeID // EventParentSet: the parent
	Ops   int           // EventDecodeOps: GF(256) row operations spent decoding
}

// Observer receives per-node observations for metrics collection.
type Observer interface {
	NodeEvent(id packet.NodeID, at time.Duration, ev Event)
	RadioState(id packet.NodeID, at time.Duration, on bool)
	// StorageOp reports an EEPROM access at slot (seg, pkt); reads and
	// writes both carry the slot so invariant checkers can validate the
	// write-once property online.
	StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int)
}

// MultiObserver fans observations out to several observers in order
// (e.g. a metrics collector plus a trace log).
type MultiObserver []Observer

// NodeEvent implements Observer.
func (m MultiObserver) NodeEvent(id packet.NodeID, at time.Duration, ev Event) {
	for _, o := range m {
		o.NodeEvent(id, at, ev)
	}
}

// RadioState implements Observer.
func (m MultiObserver) RadioState(id packet.NodeID, at time.Duration, on bool) {
	for _, o := range m {
		o.RadioState(id, at, on)
	}
}

// StorageOp implements Observer.
func (m MultiObserver) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	for _, o := range m {
		o.StorageOp(id, write, seg, pkt, bytes)
	}
}

var _ Observer = MultiObserver(nil)

// NopObserver ignores all observations.
type NopObserver struct{}

// NodeEvent implements Observer.
func (NopObserver) NodeEvent(packet.NodeID, time.Duration, Event) {}

// RadioState implements Observer.
func (NopObserver) RadioState(packet.NodeID, time.Duration, bool) {}

// StorageOp implements Observer.
func (NopObserver) StorageOp(packet.NodeID, bool, int, int, int) {}

var _ Observer = NopObserver{}

// Config sets per-node harness parameters.
type Config struct {
	// TxPower is the initial TinyOS power level.
	TxPower int
	// Battery is the starting battery fraction; 1.0 if zero.
	Battery float64
}

// MAC timing, approximating TinyOS B-MAC on the CC1000:
// initial backoff uniform over 1..32 slots, congestion backoff uniform
// over 1..16 slots, one slot ≈ 0.4 ms.
const (
	DefaultBackoffSlot  = 400 * time.Microsecond
	initialBackoffSlots = 32
	congestionSlots     = 16
	interFrameGap       = 200 * time.Microsecond
	// DefaultQueueCap bounds the MAC queue; MNP keeps at most a
	// handful of frames in flight.
	DefaultQueueCap = 24
)

// Node binds a protocol to the simulated radio and storage.
type Node struct {
	id       packet.NodeID
	kernel   *sim.Kernel
	medium   *radio.Medium
	proto    Protocol
	store    eeprom.Store
	observer Observer
	// rng is nil until the mote first draws (see Rand), and again after
	// Network.Release: a math/rand source is 4.9 KB and 13 µs to seed,
	// and in a windowed run of a large fleet most motes never draw.
	rng *rand.Rand

	// tile holds the kernel callbacks behind the mote's timers and CSMA
	// MAC, shared with every mote of its network on the same kernel,
	// and the chunks its timer table and MAC-queue slots are carved
	// from.
	tile *tile
	// timers is indexed by TimerID: protocol timer IDs are small and
	// dense, so a slice beats a map on the per-event hot path. It is
	// carved from the tile on the first SetTimer; most motes of a large
	// fleet never arm one.
	timers  []sim.Timer
	queue   []queuedFrame
	sending bool
	state   lifecycle

	completed   bool
	completedAt time.Duration
	battery     float64
	txPower     int
}

// init sets up n in place on tile t and registers h as its frame
// handler: NewNetwork passes one handler for every mote of its slab and
// one tile per kernel.
func (n *Node) init(id packet.NodeID, k *sim.Kernel, m *radio.Medium, proto Protocol, cfg Config, obs Observer, h radio.FrameHandler, t *tile) error {
	if k == nil || m == nil || proto == nil {
		return fmt.Errorf("node: nil kernel, medium, or protocol")
	}
	if cfg.Battery == 0 {
		cfg.Battery = 1.0
	}
	if obs == nil {
		obs = NopObserver{}
	}
	if err := n.store.Init(eeprom.DefaultCapacity); err != nil {
		return err
	}
	n.id, n.kernel, n.medium, n.proto, n.observer, n.tile = id, k, m, proto, obs, t
	n.battery, n.txPower = cfg.Battery, cfg.TxPower
	return m.Register(id, h)
}

// Start runs the protocol's Init.
func (n *Node) Start() error { return n.proto.Init(n) }

// lifecycle is a mote's power state. Completion is kept apart from it:
// a mote that completed and went down still holds the image.
type lifecycle uint8

const (
	// live: powered, its protocol running.
	live lifecycle = iota
	// down: crashed, RAM lost, flash kept; a restart is due.
	down
	// dead: gone for good. Nothing brings a dead mote back.
	dead
)

// stop takes the mote out of service in state s: timers cancelled,
// queue emptied, radio off. The timer table and the queue's slots are
// kept, so a rebooted mote arms and sends without carving them again.
func (n *Node) stop(s lifecycle) {
	n.state = s
	for i := range n.timers {
		n.timers[i].Cancel()
		n.timers[i] = sim.Timer{}
	}
	n.queue = n.queue[:0]
	n.sending = false
	n.medium.SetRadio(n.id, false)
	n.observer.RadioState(n.id, n.kernel.Now(), false)
}

// Dead reports whether the mote is dead: killed, never to return.
func (n *Node) Dead() bool { return n.state == dead }

// Down reports whether the mote is down: crashed, its restart due.
func (n *Node) Down() bool { return n.state == down }

// Completed reports whether the protocol called Complete.
func (n *Node) Completed() bool { return n.completed }

// CompletedAt returns the completion time ("get code time").
func (n *Node) CompletedAt() time.Duration { return n.completedAt }

// EEPROM exposes the node's flash store for verification.
func (n *Node) EEPROM() *eeprom.Store { return &n.store }

// Protocol returns the node's protocol instance.
func (n *Node) Protocol() Protocol { return n.proto }

func (n *Node) onFrame(p packet.Packet, meta radio.RxMeta) {
	if n.state != live {
		return
	}
	n.proto.OnPacket(p, meta.From)
}

// --- Runtime implementation ---

// ID implements Runtime.
func (n *Node) ID() packet.NodeID { return n.id }

// Now implements Runtime.
func (n *Node) Now() time.Duration { return n.kernel.Now() }

// Rand implements Runtime. The generator is seeded on the first call:
// the seed depends only on the id, so the stream is the one an eagerly
// seeded generator would give, and it outlives Crash/Restart. A
// generator a released network handed back (Network.Release) is
// re-seeded rather than a new one built (sim.NewRand), so the stream
// is the same bit for bit. Only the worker that owns the mote's tile
// runs its events, so no lock guards the nil check.
func (n *Node) Rand() *rand.Rand {
	if n.rng == nil {
		n.rng = sim.NewRand(int64(n.id)*0x9E3779B9 ^ 0x51F1)
	}
	return n.rng
}

// queuedFrame is one slot of the MAC queue: a frame encoded at Send,
// with the transmit power selected then, so a later SetTxPower does not
// retroactively change it. A slot keeps its buffer when its frame has
// gone out, for a later Send to encode into.
type queuedFrame struct {
	frame []byte
	power int
}

// slotBytes is a new slot's buffer, carved from the mote's tile: room
// for every frame of the default 22-byte payload. A larger frame grows
// its slot once.
const slotBytes = 64

// Send's refusals. Protocols send best-effort and drop the error, a
// saturated sender thousands of times per run, so they are made once.
var (
	errStopped   = errors.New("node: down or dead")
	errQueueFull = errors.New("node: MAC queue full")
)

// Send implements Runtime: encode p into the MAC queue's next slot for
// CSMA transmission at the current transmit power. Slots are carved on
// demand and reused, so a mote that never sends owns none. A packet
// whose frame the radio cannot carry (a body too long for the length
// byte) is refused here, not left at the head of the queue.
func (n *Node) Send(p packet.Packet) error {
	if n.state != live {
		return errStopped
	}
	if n.QueueFull() {
		return errQueueFull
	}
	i := len(n.queue)
	if i == cap(n.queue) {
		n.queue = n.tile.growQueue(n.queue)
	}
	n.queue = n.queue[:i+1]
	q := &n.queue[i]
	if q.frame == nil {
		q.frame = n.tile.frameBuf()
	}
	q.frame = packet.AppendEncode(q.frame[:0], p)
	if _, err := packet.FrameKind(q.frame); err != nil {
		n.queue = n.queue[:i]
		return fmt.Errorf("node %v: %w", n.id, err)
	}
	q.power = n.txPower
	if !n.sending {
		n.sending = true
		n.scheduleAttempt(n.initialBackoff())
	}
	return nil
}

// QueueFull implements Runtime.
func (n *Node) QueueFull() bool { return len(n.queue) >= DefaultQueueCap }

// QueueLen reports the number of frames waiting in the MAC queue.
func (n *Node) QueueLen() int { return len(n.queue) }

func (n *Node) initialBackoff() time.Duration {
	return time.Duration(1+n.Rand().Intn(initialBackoffSlots)) * DefaultBackoffSlot
}

func (n *Node) congestionBackoff() time.Duration {
	return time.Duration(1+n.Rand().Intn(congestionSlots)) * DefaultBackoffSlot
}

func (n *Node) scheduleAttempt(after time.Duration) {
	n.kernel.MustScheduleArg(after, n.tile.attempt, uint32(n.id))
}

// attempt is the CSMA step: carrier-sense, then transmit or back off.
func (n *Node) attempt() {
	if n.state != live || len(n.queue) == 0 {
		n.sending = false
		return
	}
	if !n.medium.RadioOn(n.id) {
		// Radio is off (the protocol went to sleep with frames
		// queued). Pause; RadioOn resumes the queue.
		n.sending = false
		return
	}
	if n.medium.Busy(n.id) {
		n.scheduleAttempt(n.congestionBackoff())
		return
	}
	q := n.queue[0]
	air, err := n.medium.TransmitFrame(n.id, q.frame, q.power)
	if err != nil {
		// Transient condition (e.g. raced with our own previous frame);
		// retry after a congestion backoff.
		n.scheduleAttempt(n.congestionBackoff())
		return
	}
	// Shift down instead of re-slicing from the front, which would give
	// up a slot of capacity per frame and make the next Send reallocate;
	// the sent frame's buffer moves to the spare end for reuse.
	last := copy(n.queue, n.queue[1:])
	n.queue[last] = q
	n.queue = n.queue[:last]
	n.kernel.MustScheduleArg(air+interFrameGap, n.tile.afterTx, uint32(n.id))
}

// afterTx runs one inter-frame gap after a transmission: move on to the
// next queued frame or go idle.
func (n *Node) afterTx() {
	if len(n.queue) > 0 {
		n.scheduleAttempt(n.initialBackoff())
	} else {
		n.sending = false
	}
}

// SetTimer implements Runtime. It panics on an ID above MaxTimerID.
func (n *Node) SetTimer(id TimerID, d time.Duration) {
	if n.state != live || id < 0 {
		return
	}
	if id > MaxTimerID {
		panic(fmt.Sprintf("node %v: timer ID %d above %d", n.id, id, MaxTimerID))
	}
	if int(id) >= len(n.timers) {
		n.timers = n.tile.growTimers(n.timers, int(id)+1)
	}
	// Reset replaces a pending timer where it sits in the kernel's queue:
	// a watchdog pushed out by every packet heard stays one entry.
	n.timers[id] = n.kernel.ResetArg(n.timers[id], d, n.tile.timer, uint32(n.id)<<timerBits|uint32(id))
}

// fireTimer runs timer id's expiry.
func (n *Node) fireTimer(id TimerID) {
	n.timers[id] = sim.Timer{}
	if n.state == live {
		n.proto.OnTimer(id)
	}
}

// CancelTimer implements Runtime.
func (n *Node) CancelTimer(id TimerID) {
	if id >= 0 && int(id) < len(n.timers) {
		n.timers[id].Cancel()
		n.timers[id] = sim.Timer{}
	}
}

// TimerPending implements Runtime.
func (n *Node) TimerPending(id TimerID) bool {
	return id >= 0 && int(id) < len(n.timers) && n.timers[id].Active()
}

// RadioOn implements Runtime.
func (n *Node) RadioOn() {
	if n.state != live || n.medium.RadioOn(n.id) {
		return
	}
	n.medium.SetRadio(n.id, true)
	n.observer.RadioState(n.id, n.kernel.Now(), true)
	if len(n.queue) > 0 && !n.sending {
		n.sending = true
		n.scheduleAttempt(n.initialBackoff())
	}
}

// RadioOff implements Runtime.
func (n *Node) RadioOff() {
	if n.state != live || !n.medium.RadioOn(n.id) {
		return
	}
	n.medium.SetRadio(n.id, false)
	n.observer.RadioState(n.id, n.kernel.Now(), false)
}

// IsRadioOn implements Runtime.
func (n *Node) IsRadioOn() bool { return n.medium.RadioOn(n.id) }

// SetTxPower implements Runtime.
func (n *Node) SetTxPower(level int) { n.txPower = level }

// TxPower implements Runtime.
func (n *Node) TxPower() int { return n.txPower }

// Store implements Runtime.
func (n *Node) Store(seg, pkt, segPackets int, payload []byte) error {
	if err := n.store.WriteSized(seg, pkt, segPackets, payload); err != nil {
		return err
	}
	n.observer.StorageOp(n.id, true, seg, pkt, len(payload))
	return nil
}

// Load implements Runtime.
func (n *Node) Load(seg, pkt int) []byte {
	p := n.store.Read(seg, pkt)
	if p != nil {
		n.observer.StorageOp(n.id, false, seg, pkt, len(p))
	}
	return p
}

// HasPacket implements Runtime.
func (n *Node) HasPacket(seg, pkt int) bool { return n.store.Has(seg, pkt) }

// EraseStore implements Runtime.
func (n *Node) EraseStore() {
	n.store.Erase()
	n.observer.NodeEvent(n.id, n.kernel.Now(), Event{Kind: EventStoreErased})
}

// Complete implements Runtime.
func (n *Node) Complete() {
	if n.completed {
		return
	}
	n.completed = true
	n.completedAt = n.kernel.Now()
	n.observer.NodeEvent(n.id, n.completedAt, Event{Kind: EventGotCode})
}

// Battery implements Runtime.
func (n *Node) Battery() float64 { return n.battery }

// SetBattery adjusts the remaining battery fraction (experiment setup
// for the §6 battery-aware extension).
func (n *Node) SetBattery(b float64) { n.battery = b }

// Event implements Runtime.
func (n *Node) Event(ev Event) {
	n.observer.NodeEvent(n.id, n.kernel.Now(), ev)
}

var _ Runtime = (*Node)(nil)

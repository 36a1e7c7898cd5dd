// Package nodetest provides a fake node.Runtime for protocol unit and
// robustness tests: sends are captured, timers are held in a queue the
// test fires manually, and storage is backed by a real EEPROM model.
package nodetest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Runtime is a controllable node.Runtime for tests.
type Runtime struct {
	NodeID packet.NodeID
	Clock  time.Duration
	RNG    *rand.Rand
	// Sent holds a decoded snapshot of every frame sent, Frames its
	// encoding and Powers the transmit power it was sent at.
	Sent   []packet.Packet
	Frames [][]byte
	Powers []int
	// Full makes the MAC queue refuse every Send.
	Full     bool
	Radio    bool
	Power    int
	EEPROM   *eeprom.Store
	Done     bool
	BattFrac float64
	Events   []node.Event

	timers map[node.TimerID]time.Duration
	proto  node.Protocol
}

// New builds a fake runtime for the given node ID.
func New(id packet.NodeID) *Runtime {
	store, err := eeprom.New(eeprom.DefaultCapacity)
	if err != nil {
		panic(err)
	}
	return &Runtime{
		NodeID:   id,
		RNG:      rand.New(rand.NewSource(int64(id) + 1)),
		Power:    255,
		EEPROM:   store,
		BattFrac: 1.0,
		timers:   make(map[node.TimerID]time.Duration),
	}
}

// Attach wires a protocol so FireNext can dispatch timers, and runs
// its Init, returning its error.
func (r *Runtime) Attach(p node.Protocol) error {
	r.proto = p
	return p.Init(r)
}

var _ node.Runtime = (*Runtime)(nil)

// ID implements node.Runtime.
func (r *Runtime) ID() packet.NodeID { return r.NodeID }

// Now implements node.Runtime.
func (r *Runtime) Now() time.Duration { return r.Clock }

// Rand implements node.Runtime.
func (r *Runtime) Rand() *rand.Rand { return r.RNG }

// Send implements node.Runtime. It encodes p, as a mote's MAC queue
// does, and records the frame and a decoded snapshot of it, so the
// caller may reuse p once Send returns. A frame the radio cannot carry
// is refused, as a mote refuses it. A frame that does not decode is a
// protocol bug the radio would panic on at delivery, so it panics here.
func (r *Runtime) Send(p packet.Packet) error {
	if r.Full {
		return errQueueFull
	}
	frame := packet.Encode(p)
	if _, err := packet.FrameKind(frame); err != nil {
		return fmt.Errorf("nodetest: node %v: %w", r.NodeID, err)
	}
	cp, err := packet.Decode(frame)
	if err != nil {
		panic(fmt.Sprintf("nodetest: node %v sent a %v frame that does not decode: %v", r.NodeID, p.Kind(), err))
	}
	r.Frames = append(r.Frames, frame)
	r.Sent = append(r.Sent, cp)
	r.Powers = append(r.Powers, r.Power)
	return nil
}

// errQueueFull is Send's refusal while Full is set.
var errQueueFull = errors.New("nodetest: MAC queue full")

// QueueFull implements node.Runtime: Send captures without bound
// unless Full is set.
func (r *Runtime) QueueFull() bool { return r.Full }

// SetTimer implements node.Runtime.
func (r *Runtime) SetTimer(id node.TimerID, d time.Duration) {
	r.timers[id] = r.Clock + d
}

// CancelTimer implements node.Runtime.
func (r *Runtime) CancelTimer(id node.TimerID) { delete(r.timers, id) }

// TimerPending implements node.Runtime.
func (r *Runtime) TimerPending(id node.TimerID) bool {
	_, ok := r.timers[id]
	return ok
}

// PendingTimers returns the pending timer IDs, soonest first.
func (r *Runtime) PendingTimers() []node.TimerID {
	ids := make([]node.TimerID, 0, len(r.timers))
	for id := range r.timers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if r.timers[ids[i]] != r.timers[ids[j]] {
			return r.timers[ids[i]] < r.timers[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// FireNext advances the clock to the soonest timer and dispatches it.
// It reports whether a timer fired.
func (r *Runtime) FireNext() bool {
	ids := r.PendingTimers()
	if len(ids) == 0 || r.proto == nil {
		return false
	}
	id := ids[0]
	at := r.timers[id]
	if at > r.Clock {
		r.Clock = at
	}
	delete(r.timers, id)
	r.proto.OnTimer(id)
	return true
}

// Advance moves the clock forward by d, firing on the way, soonest
// first, every timer that falls due.
func (r *Runtime) Advance(d time.Duration) {
	until := r.Clock + d
	for {
		ids := r.PendingTimers()
		if len(ids) == 0 || r.timers[ids[0]] > until || !r.FireNext() {
			break
		}
	}
	r.Clock = until
}

// Fire dispatches one specific pending timer (if set).
func (r *Runtime) Fire(id node.TimerID) bool {
	if _, ok := r.timers[id]; !ok || r.proto == nil {
		return false
	}
	delete(r.timers, id)
	r.proto.OnTimer(id)
	return true
}

// Deliver hands a packet to the protocol as if received.
func (r *Runtime) Deliver(p packet.Packet, from packet.NodeID) {
	if r.proto != nil {
		r.proto.OnPacket(p, from)
	}
}

// RadioOn implements node.Runtime.
func (r *Runtime) RadioOn() { r.Radio = true }

// RadioOff implements node.Runtime.
func (r *Runtime) RadioOff() { r.Radio = false }

// IsRadioOn implements node.Runtime.
func (r *Runtime) IsRadioOn() bool { return r.Radio }

// SetTxPower implements node.Runtime.
func (r *Runtime) SetTxPower(level int) { r.Power = level }

// TxPower implements node.Runtime.
func (r *Runtime) TxPower() int { return r.Power }

// Store implements node.Runtime.
func (r *Runtime) Store(seg, pkt, segPackets int, payload []byte) error {
	return r.EEPROM.WriteSized(seg, pkt, segPackets, payload)
}

// Load implements node.Runtime.
func (r *Runtime) Load(seg, pkt int) []byte { return r.EEPROM.Read(seg, pkt) }

// HasPacket implements node.Runtime.
func (r *Runtime) HasPacket(seg, pkt int) bool { return r.EEPROM.Has(seg, pkt) }

// EraseStore implements node.Runtime.
func (r *Runtime) EraseStore() { r.EEPROM.Erase() }

// Complete implements node.Runtime.
func (r *Runtime) Complete() { r.Done = true }

// Battery implements node.Runtime.
func (r *Runtime) Battery() float64 { return r.BattFrac }

// Event implements node.Runtime.
func (r *Runtime) Event(ev node.Event) { r.Events = append(r.Events, ev) }

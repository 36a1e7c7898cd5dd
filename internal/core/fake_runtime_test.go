package core

import (
	"math/rand"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// fakeRuntime implements node.Runtime for direct unit tests of the
// state machine: sends are captured, timers are fired manually.
type fakeRuntime struct {
	id      packet.NodeID
	now     time.Duration
	rng     *rand.Rand
	sent    []packet.Packet
	timers  map[node.TimerID]time.Duration
	radioOn bool
	txPower int
	powers  []int // power level of each send
	store   *eeprom.Store
	done    bool
	battery float64
	events  []node.Event
}

func newFakeRuntime(id packet.NodeID) *fakeRuntime {
	st, err := eeprom.New(eeprom.DefaultCapacity)
	if err != nil {
		panic(err)
	}
	return &fakeRuntime{
		id:      id,
		rng:     rand.New(rand.NewSource(int64(id) + 42)),
		timers:  make(map[node.TimerID]time.Duration),
		txPower: 255,
		store:   st,
		battery: 1.0,
	}
}

func (f *fakeRuntime) ID() packet.NodeID  { return f.id }
func (f *fakeRuntime) Now() time.Duration { return f.now }
func (f *fakeRuntime) Rand() *rand.Rand   { return f.rng }

// Send records a decoded snapshot: the caller may reuse p once Send
// returns (node.Runtime's rule).
func (f *fakeRuntime) Send(p packet.Packet) error {
	cp, err := packet.Decode(packet.Encode(p))
	if err != nil {
		panic(err)
	}
	f.sent = append(f.sent, cp)
	f.powers = append(f.powers, f.txPower)
	return nil
}

func (f *fakeRuntime) QueueFull() bool { return false }

func (f *fakeRuntime) SetTimer(id node.TimerID, d time.Duration) { f.timers[id] = d }
func (f *fakeRuntime) CancelTimer(id node.TimerID)               { delete(f.timers, id) }
func (f *fakeRuntime) TimerPending(id node.TimerID) bool {
	_, ok := f.timers[id]
	return ok
}

func (f *fakeRuntime) RadioOn()         { f.radioOn = true }
func (f *fakeRuntime) RadioOff()        { f.radioOn = false }
func (f *fakeRuntime) IsRadioOn() bool  { return f.radioOn }
func (f *fakeRuntime) SetTxPower(l int) { f.txPower = l }
func (f *fakeRuntime) TxPower() int     { return f.txPower }

func (f *fakeRuntime) Store(seg, pkt, segPackets int, payload []byte) error {
	return f.store.WriteSized(seg, pkt, segPackets, payload)
}
func (f *fakeRuntime) Load(seg, pkt int) []byte    { return f.store.Read(seg, pkt) }
func (f *fakeRuntime) HasPacket(seg, pkt int) bool { return f.store.Has(seg, pkt) }
func (f *fakeRuntime) EraseStore()                 { f.store.Erase() }

func (f *fakeRuntime) Complete()        { f.done = true }
func (f *fakeRuntime) Battery() float64 { return f.battery }
func (f *fakeRuntime) Event(ev node.Event) {
	f.events = append(f.events, ev)
}

var _ node.Runtime = (*fakeRuntime)(nil)

// lastSent returns the most recent packet of the given kind, or nil.
func (f *fakeRuntime) lastSent(k packet.Kind) packet.Packet {
	for i := len(f.sent) - 1; i >= 0; i-- {
		if f.sent[i].Kind() == k {
			return f.sent[i]
		}
	}
	return nil
}

// sentCount counts packets of the given kind.
func (f *fakeRuntime) sentCount(k packet.Kind) int {
	c := 0
	for _, p := range f.sent {
		if p.Kind() == k {
			c++
		}
	}
	return c
}

// advanceAdvRounds fires the advertise timer n times.
func advanceAdvRounds(m *MNP, n int) {
	for i := 0; i < n; i++ {
		m.OnTimer(timerAdvertise)
	}
}

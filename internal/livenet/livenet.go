// Package livenet executes the same protocol state machines the
// discrete-event simulator runs, but on real concurrency: one goroutine
// per mote, an in-memory broadcast hub, wall-clock timers, and a time
// scale that compresses simulated seconds into real milliseconds.
//
// The hub serializes the "air", so livenet models loss (the same
// distance-based link model as the radio package) but not collisions;
// it exists to prove the protocol logic is runtime-agnostic and to
// exercise it under true parallelism, not to reproduce the paper's
// channel numbers — the calibrated experiments all run on the DES.
package livenet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

// Config parameterizes a live network.
type Config struct {
	// Layout places the motes.
	Layout *topology.Layout
	// Radio supplies ranges and the loss model.
	Radio radio.Params
	// TimeScale compresses time: a simulated duration d takes d /
	// TimeScale of wall time. 200 by default.
	TimeScale float64
	// Power is the transmit power level for every node.
	Power int
	// Seed drives the loss model.
	Seed int64
	// Battery assigns initial battery fractions (default 1.0).
	Battery func(id packet.NodeID) float64
}

type event struct {
	pkt  packet.Packet
	from packet.NodeID
	// timer fields
	isTimer bool
	timerID node.TimerID
	gen     uint64
}

// transmission is a frame on the hub: encoded by the sender's Send, as
// a real mote's radio carries bytes, and decoded by each receiver.
type transmission struct {
	from  packet.NodeID
	frame []byte
	power int
}

// Network is a running fleet of goroutine-backed motes.
type Network struct {
	cfg    Config
	nodes  []*liveNode
	hub    chan transmission
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	start  time.Time
	// edgeRNG holds one loss-model generator per directed link,
	// allocated lazily. It is owned exclusively by the hub goroutine
	// (deliver → linkSucceeds), so it needs no lock — and because each
	// edge has its own stream, the loss sequence a given link sees does
	// not depend on how transmissions from unrelated links interleave.
	edgeRNG map[[2]packet.NodeID]*rand.Rand
}

// New builds a live network; protocols start immediately.
func New(cfg Config, factory func(id packet.NodeID) node.Protocol) (*Network, error) {
	if cfg.Layout == nil || factory == nil {
		return nil, fmt.Errorf("livenet: layout and factory are required")
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 200
	}
	if cfg.TimeScale < 1 {
		return nil, fmt.Errorf("livenet: time scale %v must be >= 1", cfg.TimeScale)
	}
	if cfg.Power == 0 {
		cfg.Power = radio.PowerSim
	}
	if _, ok := cfg.Radio.TxRangeFeet[cfg.Power]; !ok {
		return nil, fmt.Errorf("livenet: no range for power %d", cfg.Power)
	}
	n := &Network{
		cfg:     cfg,
		hub:     make(chan transmission, 1024),
		stop:    make(chan struct{}),
		start:   time.Now(),
		edgeRNG: make(map[[2]packet.NodeID]*rand.Rand),
	}
	for i := 0; i < cfg.Layout.N(); i++ {
		id := packet.NodeID(i)
		store, err := eeprom.New(eeprom.DefaultCapacity)
		if err != nil {
			return nil, err
		}
		battery := 1.0
		if cfg.Battery != nil {
			battery = cfg.Battery(id)
		}
		ln := &liveNode{
			id:      id,
			net:     n,
			proto:   factory(id),
			events:  make(chan event, 256),
			store:   store,
			rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(id)<<20)),
			timers:  make(map[node.TimerID]*liveTimer),
			txPower: cfg.Power,
			battery: battery,
		}
		n.nodes = append(n.nodes, ln)
	}
	n.wg.Add(1)
	go n.runHub()
	for _, ln := range n.nodes {
		n.wg.Add(1)
		go ln.run()
	}
	return n, nil
}

// Stop terminates every goroutine and waits for them to exit.
func (n *Network) Stop() {
	if n.closed.Swap(true) {
		return
	}
	close(n.stop)
	n.wg.Wait()
}

// CompletedCount returns how many nodes hold the full program.
func (n *Network) CompletedCount() int {
	c := 0
	for _, ln := range n.nodes {
		if ln.completed.Load() {
			c++
		}
	}
	return c
}

// WaitAllComplete blocks until every node completes or the wall-clock
// timeout elapses.
func (n *Network) WaitAllComplete(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.CompletedCount() == len(n.nodes) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return n.CompletedCount() == len(n.nodes)
}

// Store returns node id's EEPROM for verification after Stop.
func (n *Network) Store(id packet.NodeID) *eeprom.Store {
	return n.nodes[id].store
}

// runHub is the shared medium: it applies the link model and fans each
// transmission out to in-range, radio-on receivers.
func (n *Network) runHub() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case tx := <-n.hub:
			n.deliver(tx)
		}
	}
}

func (n *Network) deliver(tx transmission) {
	rangeFt := n.cfg.Radio.TxRangeFeet[tx.power]
	srcPos, err := n.cfg.Layout.Pos(tx.from)
	if err != nil {
		return
	}
	for _, ln := range n.nodes {
		if ln.id == tx.from || !ln.radioOn.Load() {
			continue
		}
		pos, _ := n.cfg.Layout.Pos(ln.id)
		dist := srcPos.Distance(pos)
		if dist > rangeFt {
			continue
		}
		if !n.linkSucceeds(tx.from, ln.id, dist, rangeFt, len(tx.frame)) {
			continue
		}
		// Each receiver's goroutine gets a packet of its own.
		decoded, err := packet.Decode(tx.frame)
		if err != nil {
			continue
		}
		select {
		case ln.events <- event{pkt: decoded, from: tx.from}:
		default:
			// Receiver overloaded: the frame is lost, as on a real
			// radio whose buffers are full.
		}
	}
}

// linkSucceeds rolls the loss model for one directed link. Hub
// goroutine only — the per-edge generators are unsynchronized.
func (n *Network) linkSucceeds(from, to packet.NodeID, dist, rangeFt float64, bytes int) bool {
	frac := dist / rangeFt
	p := n.cfg.Radio
	ber := p.BERFloor * math.Exp(math.Log(p.BERCeil/p.BERFloor)*frac*frac)
	success := math.Pow(1-ber, float64(bytes*8))
	return n.edgeRand(from, to).Float64() < success
}

// edgeRand returns the directed link's generator, seeding it on first
// use from the run seed and both endpoints so every edge gets a
// distinct, reproducible stream.
func (n *Network) edgeRand(from, to packet.NodeID) *rand.Rand {
	key := [2]packet.NodeID{from, to}
	if r, ok := n.edgeRNG[key]; ok {
		return r
	}
	seed := n.cfg.Seed
	seed ^= (int64(from) + 1) * 0x5851F42D4C957F2D
	seed ^= (int64(to) + 1) * 0x2545F4914F6CDD1D
	r := rand.New(rand.NewSource(seed))
	n.edgeRNG[key] = r
	return r
}

type liveTimer struct {
	gen   uint64
	timer *time.Timer
}

// liveNode implements node.Runtime over a goroutine event loop.
type liveNode struct {
	id     packet.NodeID
	net    *Network
	proto  node.Protocol
	events chan event
	store  *eeprom.Store
	rng    *rand.Rand

	timers   map[node.TimerID]*liveTimer
	timerGen uint64

	radioOn   atomic.Bool
	completed atomic.Bool
	txPower   int
	battery   float64
}

var _ node.Runtime = (*liveNode)(nil)

func (ln *liveNode) run() {
	defer ln.net.wg.Done()
	ln.proto.Init(ln)
	for {
		select {
		case <-ln.net.stop:
			return
		case ev := <-ln.events:
			if ev.isTimer {
				cur, ok := ln.timers[ev.timerID]
				if !ok || cur.gen != ev.gen {
					continue // cancelled or replaced
				}
				delete(ln.timers, ev.timerID)
				ln.proto.OnTimer(ev.timerID)
				continue
			}
			if ln.radioOn.Load() {
				ln.proto.OnPacket(ev.pkt, ev.from)
			}
		}
	}
}

// ID implements node.Runtime.
func (ln *liveNode) ID() packet.NodeID { return ln.id }

// Now implements node.Runtime, returning scaled virtual time.
func (ln *liveNode) Now() time.Duration {
	return time.Duration(float64(time.Since(ln.net.start)) * ln.net.cfg.TimeScale)
}

// Rand implements node.Runtime.
func (ln *liveNode) Rand() *rand.Rand { return ln.rng }

// Send implements node.Runtime: encode the frame and hand it to the
// hub. The refusals come first, so a refused frame is never encoded; a
// frame the radio cannot carry is refused once encoded.
func (ln *liveNode) Send(p packet.Packet) error {
	if !ln.radioOn.Load() {
		return fmt.Errorf("livenet node %v: radio off", ln.id)
	}
	if ln.QueueFull() {
		return fmt.Errorf("livenet node %v: medium congested", ln.id)
	}
	frame := packet.Encode(p)
	if _, err := packet.FrameKind(frame); err != nil {
		return fmt.Errorf("livenet node %v: %w", ln.id, err)
	}
	select {
	case ln.net.hub <- transmission{from: ln.id, frame: frame, power: ln.txPower}:
		return nil
	default:
		return fmt.Errorf("livenet node %v: medium congested", ln.id)
	}
}

// QueueFull implements node.Runtime: the hub's buffer is the only
// queue a live mote has.
func (ln *liveNode) QueueFull() bool { return len(ln.net.hub) == cap(ln.net.hub) }

// SetTimer implements node.Runtime.
func (ln *liveNode) SetTimer(id node.TimerID, d time.Duration) {
	ln.CancelTimer(id)
	ln.timerGen++
	gen := ln.timerGen
	real := time.Duration(float64(d) / ln.net.cfg.TimeScale)
	if real < 50*time.Microsecond {
		real = 50 * time.Microsecond
	}
	lt := &liveTimer{gen: gen}
	lt.timer = time.AfterFunc(real, func() {
		select {
		case ln.events <- event{isTimer: true, timerID: id, gen: gen}:
		case <-ln.net.stop:
		}
	})
	ln.timers[id] = lt
}

// CancelTimer implements node.Runtime.
func (ln *liveNode) CancelTimer(id node.TimerID) {
	if lt, ok := ln.timers[id]; ok {
		lt.timer.Stop()
		delete(ln.timers, id)
	}
}

// TimerPending implements node.Runtime.
func (ln *liveNode) TimerPending(id node.TimerID) bool {
	_, ok := ln.timers[id]
	return ok
}

// RadioOn implements node.Runtime.
func (ln *liveNode) RadioOn() { ln.radioOn.Store(true) }

// RadioOff implements node.Runtime.
func (ln *liveNode) RadioOff() { ln.radioOn.Store(false) }

// IsRadioOn implements node.Runtime.
func (ln *liveNode) IsRadioOn() bool { return ln.radioOn.Load() }

// SetTxPower implements node.Runtime.
func (ln *liveNode) SetTxPower(level int) { ln.txPower = level }

// TxPower implements node.Runtime.
func (ln *liveNode) TxPower() int { return ln.txPower }

// Store implements node.Runtime.
func (ln *liveNode) Store(seg, pkt, segPackets int, payload []byte) error {
	return ln.store.WriteSized(seg, pkt, segPackets, payload)
}

// Load implements node.Runtime.
func (ln *liveNode) Load(seg, pkt int) []byte { return ln.store.Read(seg, pkt) }

// HasPacket implements node.Runtime.
func (ln *liveNode) HasPacket(seg, pkt int) bool { return ln.store.Has(seg, pkt) }

// EraseStore implements node.Runtime.
func (ln *liveNode) EraseStore() { ln.store.Erase() }

// Complete implements node.Runtime.
func (ln *liveNode) Complete() { ln.completed.Store(true) }

// Battery implements node.Runtime.
func (ln *liveNode) Battery() float64 { return ln.battery }

// Event implements node.Runtime.
func (ln *liveNode) Event(node.Event) {}

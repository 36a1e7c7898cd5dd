package node

import (
	"fmt"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// Network assembles one node per layout position. It is a facade over
// every node of a run (Start, AllCompleted, CompletionTime), whichever
// kernels and media place put them on, and the one owner of each mote's
// lifecycle (Kill, Crash, Restart); the caller drives the kernels, e.g.
// Kernel.RunUntil(nw.AllCompleted, limit).
type Network struct {
	Layout *topology.Layout
	Nodes  []*Node

	// factory builds a restarted mote its fresh protocol instance.
	factory Factory
	// tiles holds one tile per kernel, in order of first use; Release
	// hands them on.
	tiles []*tile

	// satisfiedCursor counts the leading nodes known to be dead or
	// completed. Both are monotone: no transition leaves dead, and
	// nothing clears completion. So AllCompleted only ever rechecks the
	// first node that wasn't — Kernel.RunUntil evaluates the predicate
	// after every event, and a full O(N) scan there dominated large-grid
	// runs.
	satisfiedCursor int
}

// Factory produces the protocol instance and harness config for node
// id. The base station typically gets a source-role protocol.
type Factory func(id packet.NodeID) (Protocol, Config)

// NewNetwork builds all nodes, asking place for each node's runtime —
// its kernel, its medium (possibly a shard of the channel), and its
// observer. A single-kernel run places every node on the same triple;
// the sharded engine pins every node to the shard that owns it.
// Protocols are not started until Start.
func NewNetwork(layout *topology.Layout, f Factory, place func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer)) (*Network, error) {
	if f == nil {
		return nil, fmt.Errorf("node: nil factory")
	}
	if place == nil {
		return nil, fmt.Errorf("node: nil placement")
	}
	if layout.N() > maxMotes {
		return nil, fmt.Errorf("node: %d motes, at most %d", layout.N(), maxMotes)
	}
	// The motes are carved from one slab, and one handler serves them
	// all: the medium names the receiver in RxMeta.To. Likewise one
	// timer callback and one pair of CSMA callbacks serve every mote,
	// told apart by the event's argument, and the motes on each kernel
	// share a tile to carve their timer tables and queue slots from.
	slab := make([]Node, layout.N())
	onFrame := func(p packet.Packet, meta radio.RxMeta) { slab[meta.To].onFrame(p, meta) }
	timer := func(arg uint32) { slab[arg>>timerBits].fireTimer(TimerID(arg) & MaxTimerID) }
	attempt := func(arg uint32) { slab[arg].attempt() }
	afterTx := func(arg uint32) { slab[arg].afterTx() }
	tiles := make(map[*sim.Kernel]*tile)
	nw := &Network{Layout: layout, Nodes: make([]*Node, len(slab)), factory: f}
	for i := range slab {
		id := packet.NodeID(i)
		proto, cfg := f(id)
		k, m, obs := place(id)
		t := tiles[k]
		if t == nil {
			t = newTile(timer, attempt, afterTx)
			tiles[k] = t
			nw.tiles = append(nw.tiles, t)
		}
		if err := slab[i].init(id, k, m, proto, cfg, obs, onFrame, t); err != nil {
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
		nw.Nodes[i] = &slab[i]
	}
	return nw, nil
}

// Start initializes every node's protocol in ID order. It stops at the
// first protocol whose Init fails and returns that error.
func (nw *Network) Start() error {
	for _, n := range nw.Nodes {
		if err := n.Start(); err != nil {
			return fmt.Errorf("node %v: %w", n.id, err)
		}
	}
	return nil
}

// Node returns the node with the given ID.
func (nw *Network) Node(id packet.NodeID) *Node { return nw.Nodes[id] }

// Kill ends mote id for good, as a removed battery does: its RAM is
// lost and its radio goes off. A dead mote stays as it is.
func (nw *Network) Kill(id packet.NodeID) {
	if n := nw.Nodes[id]; n.state != dead {
		n.stop(dead)
	}
}

// Crash takes live mote id down, as a power failure does: timers, the
// MAC queue and the protocol's RAM state are lost, and the radio goes
// off, but the EEPROM survives for Restart. A mote that is down or dead
// stays as it is.
func (nw *Network) Crash(id packet.NodeID) {
	if n := nw.Nodes[id]; n.state == live {
		n.stop(down)
	}
}

// Restart brings down mote id back up, as a rebooting mote does: the
// factory builds it a fresh protocol instance whose Init runs at once,
// its EEPROM and its original harness config are kept. A restart that
// finds its mote live or dead does nothing, and a mote whose fresh
// protocol cannot start is dead.
func (nw *Network) Restart(id packet.NodeID) {
	n := nw.Nodes[id]
	if n.state != down {
		return
	}
	n.proto, _ = nw.factory(id)
	n.state = live
	n.observer.NodeEvent(id, n.kernel.Now(), Event{Kind: EventRebooted})
	if n.proto.Init(n) != nil {
		n.stop(dead)
	}
}

// Release hands every mote's generator and EEPROM rows, and the chunks
// their timer tables and MAC-queue slots were carved from, on for a
// later network to reuse, once the run is over and its results are
// read. Afterwards no view an earlier EEPROM Read returned may be
// read, every store is empty, no mote may run again, and a mote that
// draws again starts its stream over exactly as a fresh mote would. A
// second Release does nothing.
func (nw *Network) Release() {
	for _, n := range nw.Nodes {
		if n.rng != nil {
			sim.ReleaseRand(n.rng)
			n.rng = nil
		}
		n.store.Release()
		n.timers, n.queue = nil, nil
	}
	for _, t := range nw.tiles {
		t.release()
	}
	nw.tiles = nil
}

// CompletedCount returns how many nodes hold the full program.
func (nw *Network) CompletedCount() int {
	c := 0
	for _, n := range nw.Nodes {
		if n.Completed() {
			c++
		}
	}
	return c
}

// AllCompleted reports whether every mote that is not dead holds the
// full program: the paper requires coverage of the connected network,
// and a mote that is down comes back to it.
func (nw *Network) AllCompleted() bool {
	for nw.satisfiedCursor < len(nw.Nodes) {
		n := nw.Nodes[nw.satisfiedCursor]
		if !n.Dead() && !n.Completed() {
			return false
		}
		nw.satisfiedCursor++
	}
	return true
}

// CompletionTime returns the time the last node completed — the
// paper's "completion time" metric. It is only meaningful when
// AllCompleted is true.
func (nw *Network) CompletionTime() time.Duration {
	var maxT time.Duration
	for _, n := range nw.Nodes {
		if n.Completed() && n.CompletedAt() > maxT {
			maxT = n.CompletedAt()
		}
	}
	return maxT
}

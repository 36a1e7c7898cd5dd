package main

import (
	"encoding/json"
	"os"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
)

// A span is one timed interval at a layer boundary, recorded from the
// harness's side of the call. Spans of one workload share its name.
type span struct {
	Name     string  `json:"name"`
	StartS   float64 `json:"start"`
	EndS     float64 `json:"end"`
	Parent   int     `json:"parent"` // index of the enclosing span, -1 for the root
	Workload string  `json:"workload"`
}

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].StartS = time.Since(t.epoch).Seconds()
}

// end closes the innermost open span and returns its index.
func (t *tracer) end() int {
	now := time.Since(t.epoch).Seconds()
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndS = now
	return id
}

// in times fn as a span and returns the span's self time in seconds.
func (t *tracer) in(name string, fn func()) float64 {
	t.begin(name)
	fn()
	return t.self(t.end())
}

func (t *tracer) total(id int) float64 { return t.spans[id].EndS - t.spans[id].StartS }

// self is a span's duration minus the part its direct children cover.
func (t *tracer) self(id int) float64 {
	d := t.total(id)
	for i := range t.spans {
		if t.spans[i].Parent == id {
			d -= t.total(i)
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Kinds of captured call. The radio replay consumes radioOn, radioOff
// and transmit; the metrics replay consumes everything but transmit
// (FrameSent carries the same instant); the EEPROM replay consumes
// storage.
const (
	callRadioOn = iota
	callRadioOff
	callTransmit
	callNodeEvent
	callStorageRead
	callStorageWrite
	callFrameSent
	callFrameReceived
	callFrameCollided
	callKinds // how many kinds there are
)

// call is one captured hook invocation, in the order it happened.
type call struct {
	at   time.Duration
	id   packet.NodeID // the node, the transmitter, or the receiver
	peer packet.NodeID // the frame's source on receptions and collisions
	kind uint8
	pk   packet.Kind
	// a and b carry the rest: (seg, pkt) for storage, the frame size in
	// a for traffic, an index into capture.events or capture.packets in
	// a for node events and transmissions. n is the storage byte count.
	a, b, n int32
}

// capture records everything a run says through its public hooks: it
// is the node.Observer, the tee'd radio.TrafficSink and the radio.Tap.
// Attached to one sequential run, single-threaded like the run itself.
type capture struct {
	now     func() time.Duration
	sink    radio.TrafficSink // the run's own collector, still fed
	calls   []call
	events  []node.Event
	packets []packet.Packet
}

func (c *capture) RadioState(id packet.NodeID, at time.Duration, on bool) {
	k := uint8(callRadioOff)
	if on {
		k = callRadioOn
	}
	c.calls = append(c.calls, call{at: at, id: id, kind: k})
}

func (c *capture) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	c.calls = append(c.calls, call{at: at, id: id, kind: callNodeEvent, a: int32(len(c.events))})
	c.events = append(c.events, ev)
}

func (c *capture) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	k := uint8(callStorageRead)
	if write {
		k = callStorageWrite
	}
	c.calls = append(c.calls, call{at: c.now(), id: id, kind: k, a: int32(seg), b: int32(pkt), n: int32(bytes)})
}

func (c *capture) FrameSent(src packet.NodeID, kind packet.Kind, bytes int) {
	c.sink.FrameSent(src, kind, bytes)
	c.calls = append(c.calls, call{at: c.now(), id: src, kind: callFrameSent, pk: kind, a: int32(bytes)})
}

func (c *capture) FrameReceived(dst, src packet.NodeID, kind packet.Kind, bytes int) {
	c.sink.FrameReceived(dst, src, kind, bytes)
	c.calls = append(c.calls, call{at: c.now(), id: dst, peer: src, kind: callFrameReceived, pk: kind, a: int32(bytes)})
}

func (c *capture) FrameCollided(dst, src packet.NodeID, kind packet.Kind) {
	c.sink.FrameCollided(dst, src, kind)
	c.calls = append(c.calls, call{at: c.now(), id: dst, peer: src, kind: callFrameCollided, pk: kind})
}

// tap is the radio.Tap: the packet is kept by reference, which the
// radio's contract allows (packets are immutable after Transmit).
func (c *capture) tap(src packet.NodeID, p packet.Packet, _ time.Duration) {
	c.calls = append(c.calls, call{at: c.now(), id: src, kind: callTransmit, a: int32(len(c.packets))})
	c.packets = append(c.packets, p)
}

// counts returns how many captured calls there are of each kind.
func (c *capture) counts() (n [callKinds]int) {
	for i := range c.calls {
		n[c.calls[i].kind]++
	}
	return n
}

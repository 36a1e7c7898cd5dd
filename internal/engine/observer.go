package engine

import (
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
)

// recKind discriminates buffered observation records.
type recKind uint8

const (
	recNodeEvent recKind = iota
	recRadioState
	recStorageOp
	recPacketSent
)

// obsRecord is one buffered observation, stamped with the shard clock
// at capture and a per-buffer sequence number.
type obsRecord struct {
	at   time.Duration
	seq  uint64
	kind recKind
	id   packet.NodeID

	ev node.Event // recNodeEvent

	on bool // recRadioState

	write           bool // recStorageOp
	seg, pkt, bytes int

	p   packet.Packet // recPacketSent
	air time.Duration
}

// less orders records by (time, node, local sequence). Records for one
// node only ever come from one shard, so the per-buffer sequence fully
// orders same-(time, node) pairs and the merge is total and
// deterministic.
func (r *obsRecord) less(o *obsRecord) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	if r.id != o.id {
		return r.id < o.id
	}
	return r.seq < o.seq
}

// deliver replays the record into the global observer and tap.
func (r *obsRecord) deliver(obs node.Observer, tap radio.Tap) {
	switch r.kind {
	case recNodeEvent:
		if obs != nil {
			obs.NodeEvent(r.id, r.at, r.ev)
		}
	case recRadioState:
		if obs != nil {
			obs.RadioState(r.id, r.at, r.on)
		}
	case recStorageOp:
		if obs != nil {
			obs.StorageOp(r.id, r.write, r.seg, r.pkt, r.bytes)
		}
	case recPacketSent:
		if tap != nil {
			tap(r.id, r.p, r.air)
		}
	}
}

// Buffer captures one shard's observations for barrier replay. It
// implements node.Observer, and PacketSent matches radio.Tap. Packets
// captured by the tap are retained until the next barrier; the medium
// decodes a packet for the tap alone, so retention is safe.
type Buffer struct {
	now  func() time.Duration
	recs []obsRecord
	seq  uint64
}

var _ node.Observer = (*Buffer)(nil)

func (b *Buffer) push(r obsRecord) {
	r.seq = b.seq
	b.seq++
	b.recs = append(b.recs, r)
}

// NodeEvent implements node.Observer.
func (b *Buffer) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	b.push(obsRecord{at: at, kind: recNodeEvent, id: id, ev: ev})
}

// RadioState implements node.Observer.
func (b *Buffer) RadioState(id packet.NodeID, at time.Duration, on bool) {
	b.push(obsRecord{at: at, kind: recRadioState, id: id, on: on})
}

// StorageOp implements node.Observer. The interface carries no
// timestamp, so the shard clock supplies one for merge ordering.
func (b *Buffer) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	b.push(obsRecord{at: b.now(), kind: recStorageOp, id: id, write: write, seg: seg, pkt: pkt, bytes: bytes})
}

// PacketSent matches radio.Tap; wire it with Medium.SetTap.
func (b *Buffer) PacketSent(src packet.NodeID, p packet.Packet, air time.Duration) {
	b.push(obsRecord{at: b.now(), kind: recPacketSent, id: src, p: p, air: air})
}

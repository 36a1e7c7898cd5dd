package packet

import (
	"fmt"
	"slices"
)

// RlncAdv is the rateless-coding advertisement: instead of MNP's
// MissingVector round trips, a node broadcasts how far it has decoded —
// complete segments plus the Gaussian-elimination rank of the segment
// in progress — and neighbors that are ahead respond with more coded
// packets. The advertisement also carries the full image geometry so a
// rebooted or late-joining node can bootstrap without a request.
type RlncAdv struct {
	Src          NodeID
	ProgramID    uint8
	Segments     uint8  // segments in the image
	SegPackets   uint8  // packets per full segment (coefficient width)
	TotalPackets uint16 // packets in the whole image
	PayloadLen   uint8  // bytes per coded payload (image payload size)
	Tail         uint8  // bytes in the image's final packet
	CompleteSegs uint8  // segments Src has fully decoded and stored
	Rank         uint8  // decode rank of segment CompleteSegs+1
}

// Kind implements Packet.
func (*RlncAdv) Kind() Kind { return KindRlncAdv }

// Dest implements Packet.
func (*RlncAdv) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (a *RlncAdv) Source() NodeID { return a.Src }

func (a *RlncAdv) appendPayload(b []byte) []byte {
	b = appendNodeID(b, a.Src)
	b = append(b, a.ProgramID, a.Segments, a.SegPackets)
	b = appendU16(b, a.TotalPackets)
	return append(b, a.PayloadLen, a.Tail, a.CompleteSegs, a.Rank)
}

func (a *RlncAdv) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	a.Src = r.nodeID()
	a.ProgramID, a.Segments, a.SegPackets = r.u8(), r.u8(), r.u8()
	a.TotalPackets = r.u16()
	a.PayloadLen, a.Tail, a.CompleteSegs, a.Rank = r.u8(), r.u8(), r.u8(), r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed rlnc adv payload (%d bytes)", len(b))
	}
	return nil
}

// RlncData carries one random linear combination of segment Seg's
// packets: Payload = sum_i Coeffs[i] * packet_i over GF(256), with the
// coefficient vector carried in-frame so any K innovative receptions —
// from any mix of senders — decode the segment.
type RlncData struct {
	Src       NodeID
	ProgramID uint8
	Seg       uint8  // 1-based segment
	Coeffs    []byte // K coefficients, one per packet of the segment
	Payload   []byte // coded payload, padded to the image payload size
}

// Kind implements Packet.
func (*RlncData) Kind() Kind { return KindRlncData }

// Dest implements Packet.
func (*RlncData) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (d *RlncData) Source() NodeID { return d.Src }

func (d *RlncData) appendPayload(b []byte) []byte {
	// A coded frame outgrows a default MAC slot: reserve the body and
	// the CRC AppendEncode adds after it, so the slot grows once.
	b = slices.Grow(b, nodeIDWireSize(d.Src)+3+len(d.Coeffs)+len(d.Payload)+2)
	b = appendNodeID(b, d.Src)
	b = append(b, d.ProgramID, d.Seg, uint8(len(d.Coeffs)))
	b = append(b, d.Coeffs...)
	return append(b, d.Payload...)
}

func (d *RlncData) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	d.Src = r.nodeID()
	d.ProgramID, d.Seg = r.u8(), r.u8()
	k := int(r.u8())
	rest := r.rest()
	if r.failed || len(rest) < k {
		return fmt.Errorf("malformed rlnc data payload (%d bytes)", len(b))
	}
	d.Coeffs = append(d.Coeffs[:0], rest[:k]...)
	d.Payload = append(d.Payload[:0], rest[k:]...)
	return nil
}

package packet

import (
	"fmt"

	"mnp/internal/bitvec"
)

// Advertise announces that Src holds segment SegID of program
// ProgramID and is competing to transmit it. ReqCtr is the number of
// distinct requesters Src has accumulated this advertising round;
// competing sources overhearing a higher ReqCtr concede and sleep.
type Advertise struct {
	Src             NodeID
	ProgramID       uint8
	ProgramSegments uint8  // total segments in the program
	SegID           uint8  // segment being advertised (1-based)
	SegNominal      uint8  // packets per full segment
	TotalPackets    uint16 // packets in the whole program
	ReqCtr          uint8
}

// Kind implements Packet.
func (*Advertise) Kind() Kind { return KindAdvertise }

// Dest implements Packet; advertisements are broadcast.
func (*Advertise) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (a *Advertise) Source() NodeID { return a.Src }

func (a *Advertise) appendPayload(b []byte) []byte {
	b = appendNodeID(b, a.Src)
	b = append(b, a.ProgramID, a.ProgramSegments, a.SegID, a.SegNominal)
	b = appendU16(b, a.TotalPackets)
	return append(b, a.ReqCtr)
}

func (a *Advertise) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	a.Src = r.nodeID()
	a.ProgramID, a.ProgramSegments, a.SegID, a.SegNominal = r.u8(), r.u8(), r.u8(), r.u8()
	a.TotalPackets = r.u16()
	a.ReqCtr = r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed advertise payload (%d bytes)", len(b))
	}
	return nil
}

// DownloadRequest asks DestID to transmit segment SegID. It is sent as
// a broadcast with the destination in a field, so third parties learn
// both that DestID is a potential source and how many requesters it
// has (EchoReqCtr) — the paper's answer to the hidden-terminal problem.
// Missing carries the requester's MissingVector for the segment so the
// source can fold it into its ForwardVector.
type DownloadRequest struct {
	Src        NodeID
	DestID     NodeID
	ProgramID  uint8
	SegID      uint8
	SegPackets uint8
	EchoReqCtr uint8 // the ReqCtr value DestID advertised
	Missing    *bitvec.Vector
}

// Kind implements Packet.
func (*DownloadRequest) Kind() Kind { return KindDownloadRequest }

// Dest implements Packet.
func (r *DownloadRequest) Dest() NodeID { return r.DestID }

// Source implements Packet.
func (r *DownloadRequest) Source() NodeID { return r.Src }

func (r *DownloadRequest) appendPayload(b []byte) []byte {
	b = appendNodeID(b, r.Src)
	b = appendNodeID(b, r.DestID)
	b = append(b, r.ProgramID, r.SegID, r.SegPackets, r.EchoReqCtr)
	if r.Missing != nil {
		b = r.Missing.AppendBytes(b)
	}
	return b
}

func (r *DownloadRequest) decodePayload(b []byte) error {
	rd := payloadReader{b: b}
	r.Src = rd.nodeID()
	r.DestID = rd.nodeID()
	r.ProgramID, r.SegID, r.SegPackets, r.EchoReqCtr = rd.u8(), rd.u8(), rd.u8(), rd.u8()
	rest := rd.rest()
	if !rd.ok() {
		return fmt.Errorf("malformed download request payload (%d bytes)", len(b))
	}
	if len(rest) == 0 {
		r.Missing = nil
		return nil
	}
	v, err := bitvec.DecodeReuse(r.Missing, int(r.SegPackets), rest)
	if err != nil {
		return err
	}
	r.Missing = v
	return nil
}

// StartDownload announces that Src won sender selection and is about
// to stream segment SegID. Receivers expecting exactly this segment
// enter the download state and adopt Src as their parent.
type StartDownload struct {
	Src        NodeID
	ProgramID  uint8
	SegID      uint8
	SegPackets uint8
}

// Kind implements Packet.
func (*StartDownload) Kind() Kind { return KindStartDownload }

// Dest implements Packet.
func (*StartDownload) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (s *StartDownload) Source() NodeID { return s.Src }

func (s *StartDownload) appendPayload(b []byte) []byte {
	b = appendNodeID(b, s.Src)
	return append(b, s.ProgramID, s.SegID, s.SegPackets)
}

func (s *StartDownload) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	s.Src = r.nodeID()
	s.ProgramID, s.SegID, s.SegPackets = r.u8(), r.u8(), r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed start download payload (%d bytes)", len(b))
	}
	return nil
}

// Data carries one code packet of a segment. Receivers accept Data
// from any sender as long as the segment ID matches what they expect;
// each packet has a unique (SegID, PacketID) identity, so arrival
// order does not matter.
type Data struct {
	Src       NodeID
	ProgramID uint8
	SegID     uint8
	PacketID  uint8
	Payload   []byte
}

// Kind implements Packet.
func (*Data) Kind() Kind { return KindData }

// Dest implements Packet.
func (*Data) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (d *Data) Source() NodeID { return d.Src }

func (d *Data) appendPayload(b []byte) []byte {
	b = appendNodeID(b, d.Src)
	b = append(b, d.ProgramID, d.SegID, d.PacketID)
	return append(b, d.Payload...)
}

func (d *Data) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	d.Src = r.nodeID()
	d.ProgramID, d.SegID, d.PacketID = r.u8(), r.u8(), r.u8()
	if r.failed {
		return fmt.Errorf("malformed data payload (%d bytes)", len(b))
	}
	d.Payload = append(d.Payload[:0], r.rest()...)
	return nil
}

// EndDownload marks the end of a segment transmission by Src.
// Receivers with a clean MissingVector advance; the rest enter the
// repair path (query/update) or the fail state.
type EndDownload struct {
	Src       NodeID
	ProgramID uint8
	SegID     uint8
}

// Kind implements Packet.
func (*EndDownload) Kind() Kind { return KindEndDownload }

// Dest implements Packet.
func (*EndDownload) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (e *EndDownload) Source() NodeID { return e.Src }

func (e *EndDownload) appendPayload(b []byte) []byte {
	b = appendNodeID(b, e.Src)
	return append(b, e.ProgramID, e.SegID)
}

func (e *EndDownload) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	e.Src = r.nodeID()
	e.ProgramID, e.SegID = r.u8(), r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed end download payload (%d bytes)", len(b))
	}
	return nil
}

// Query opens the optional query/update phase: the parent asks its
// children to report missing packets of SegID.
type Query struct {
	Src       NodeID
	ProgramID uint8
	SegID     uint8
}

// Kind implements Packet.
func (*Query) Kind() Kind { return KindQuery }

// Dest implements Packet.
func (*Query) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (q *Query) Source() NodeID { return q.Src }

func (q *Query) appendPayload(b []byte) []byte {
	b = appendNodeID(b, q.Src)
	return append(b, q.ProgramID, q.SegID)
}

func (q *Query) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	q.Src = r.nodeID()
	q.ProgramID, q.SegID = r.u8(), r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed query payload (%d bytes)", len(b))
	}
	return nil
}

// RepairRequest asks the parent (DestID) to retransmit one missing
// packet during the query/update phase. The child walks its
// MissingVector one packet at a time, matching the paper's state
// machine ("store the packet and request for the next missing packet").
type RepairRequest struct {
	Src       NodeID
	DestID    NodeID
	ProgramID uint8
	SegID     uint8
	PacketID  uint8
}

// Kind implements Packet.
func (*RepairRequest) Kind() Kind { return KindRepairRequest }

// Dest implements Packet.
func (r *RepairRequest) Dest() NodeID { return r.DestID }

// Source implements Packet.
func (r *RepairRequest) Source() NodeID { return r.Src }

func (r *RepairRequest) appendPayload(b []byte) []byte {
	b = appendNodeID(b, r.Src)
	b = appendNodeID(b, r.DestID)
	return append(b, r.ProgramID, r.SegID, r.PacketID)
}

func (r *RepairRequest) decodePayload(b []byte) error {
	rd := payloadReader{b: b}
	r.Src = rd.nodeID()
	r.DestID = rd.nodeID()
	r.ProgramID, r.SegID, r.PacketID = rd.u8(), rd.u8(), rd.u8()
	if !rd.ok() {
		return fmt.Errorf("malformed repair request payload (%d bytes)", len(b))
	}
	return nil
}

// StartSignal is the external reboot command. The paper deliberately
// does not reboot nodes on local estimation; the base station floods
// this signal once empirical data says dissemination has finished.
type StartSignal struct {
	Src       NodeID
	ProgramID uint8
}

// Kind implements Packet.
func (*StartSignal) Kind() Kind { return KindStartSignal }

// Dest implements Packet.
func (*StartSignal) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (s *StartSignal) Source() NodeID { return s.Src }

func (s *StartSignal) appendPayload(b []byte) []byte {
	b = appendNodeID(b, s.Src)
	return append(b, s.ProgramID)
}

func (s *StartSignal) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	s.Src = r.nodeID()
	s.ProgramID = r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed start signal payload (%d bytes)", len(b))
	}
	return nil
}

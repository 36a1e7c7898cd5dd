package packet

import (
	"fmt"

	"mnp/internal/bitvec"
)

// DelugeAdv is Deluge's Trickle-suppressed advertisement: the version
// of the image the node knows about and the number of complete pages
// it holds. Neighbors with fewer pages request the next page.
type DelugeAdv struct {
	Src          NodeID
	ProgramID    uint8
	Version      uint8
	NumPages     uint8  // total pages in the image
	HavePages    uint8  // pages Src holds completely
	PagePackets  uint8  // packets per full page
	TotalPackets uint16 // packets in the whole image
}

// Kind implements Packet.
func (*DelugeAdv) Kind() Kind { return KindDelugeAdv }

// Dest implements Packet.
func (*DelugeAdv) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (a *DelugeAdv) Source() NodeID { return a.Src }

func (a *DelugeAdv) appendPayload(b []byte) []byte {
	b = appendNodeID(b, a.Src)
	b = append(b, a.ProgramID, a.Version, a.NumPages, a.HavePages, a.PagePackets)
	return appendU16(b, a.TotalPackets)
}

func (a *DelugeAdv) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	a.Src = r.nodeID()
	a.ProgramID, a.Version, a.NumPages, a.HavePages, a.PagePackets = r.u8(), r.u8(), r.u8(), r.u8(), r.u8()
	a.TotalPackets = r.u16()
	if !r.ok() {
		return fmt.Errorf("malformed deluge adv payload (%d bytes)", len(b))
	}
	return nil
}

// DelugeReq asks DestID to transmit the packets of Page marked in
// Missing.
type DelugeReq struct {
	Src         NodeID
	DestID      NodeID
	ProgramID   uint8
	Page        uint8
	PagePackets uint8
	Missing     *bitvec.Vector
}

// Kind implements Packet.
func (*DelugeReq) Kind() Kind { return KindDelugeReq }

// Dest implements Packet.
func (r *DelugeReq) Dest() NodeID { return r.DestID }

// Source implements Packet.
func (r *DelugeReq) Source() NodeID { return r.Src }

func (r *DelugeReq) appendPayload(b []byte) []byte {
	b = appendNodeID(b, r.Src)
	b = appendNodeID(b, r.DestID)
	b = append(b, r.ProgramID, r.Page, r.PagePackets)
	if r.Missing != nil {
		b = r.Missing.AppendBytes(b)
	}
	return b
}

func (r *DelugeReq) decodePayload(b []byte) error {
	rd := payloadReader{b: b}
	r.Src = rd.nodeID()
	r.DestID = rd.nodeID()
	r.ProgramID, r.Page, r.PagePackets = rd.u8(), rd.u8(), rd.u8()
	rest := rd.rest()
	if !rd.ok() {
		return fmt.Errorf("malformed deluge req payload (%d bytes)", len(b))
	}
	if len(rest) == 0 {
		r.Missing = nil
		return nil
	}
	v, err := bitvec.DecodeReuse(r.Missing, int(r.PagePackets), rest)
	if err != nil {
		return err
	}
	r.Missing = v
	return nil
}

// DelugeData carries one packet of a Deluge page.
type DelugeData struct {
	Src       NodeID
	ProgramID uint8
	Page      uint8
	PacketID  uint8
	Payload   []byte
}

// Kind implements Packet.
func (*DelugeData) Kind() Kind { return KindDelugeData }

// Dest implements Packet.
func (*DelugeData) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (d *DelugeData) Source() NodeID { return d.Src }

func (d *DelugeData) appendPayload(b []byte) []byte {
	b = appendNodeID(b, d.Src)
	b = append(b, d.ProgramID, d.Page, d.PacketID)
	return append(b, d.Payload...)
}

func (d *DelugeData) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	d.Src = r.nodeID()
	d.ProgramID, d.Page, d.PacketID = r.u8(), r.u8(), r.u8()
	if r.failed {
		return fmt.Errorf("malformed deluge data payload (%d bytes)", len(b))
	}
	d.Payload = append(d.Payload[:0], r.rest()...)
	return nil
}

// MoapPublish announces that Src holds the complete image (MOAP is
// strictly hop-by-hop: only nodes with the whole image publish).
type MoapPublish struct {
	Src       NodeID
	ProgramID uint8
	Version   uint8
	Total     uint16 // total packets in the image
}

// Kind implements Packet.
func (*MoapPublish) Kind() Kind { return KindMoapPublish }

// Dest implements Packet.
func (*MoapPublish) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (p *MoapPublish) Source() NodeID { return p.Src }

func (p *MoapPublish) appendPayload(b []byte) []byte {
	b = appendNodeID(b, p.Src)
	b = append(b, p.ProgramID, p.Version)
	return appendU16(b, p.Total)
}

func (p *MoapPublish) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	p.Src = r.nodeID()
	p.ProgramID, p.Version = r.u8(), r.u8()
	p.Total = r.u16()
	if !r.ok() {
		return fmt.Errorf("malformed moap publish payload (%d bytes)", len(b))
	}
	return nil
}

// MoapSubscribe subscribes Src to DestID's transmission of the image.
type MoapSubscribe struct {
	Src       NodeID
	DestID    NodeID
	ProgramID uint8
}

// Kind implements Packet.
func (*MoapSubscribe) Kind() Kind { return KindMoapSubscribe }

// Dest implements Packet.
func (s *MoapSubscribe) Dest() NodeID { return s.DestID }

// Source implements Packet.
func (s *MoapSubscribe) Source() NodeID { return s.Src }

func (s *MoapSubscribe) appendPayload(b []byte) []byte {
	b = appendNodeID(b, s.Src)
	b = appendNodeID(b, s.DestID)
	return append(b, s.ProgramID)
}

func (s *MoapSubscribe) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	s.Src = r.nodeID()
	s.DestID = r.nodeID()
	s.ProgramID = r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed moap subscribe payload (%d bytes)", len(b))
	}
	return nil
}

// MoapData carries one packet of the whole image, identified by a flat
// sequence number (MOAP has no segments).
type MoapData struct {
	Src       NodeID
	ProgramID uint8
	Seq       uint16
	Total     uint16
	Payload   []byte
}

// Kind implements Packet.
func (*MoapData) Kind() Kind { return KindMoapData }

// Dest implements Packet.
func (*MoapData) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (d *MoapData) Source() NodeID { return d.Src }

func (d *MoapData) appendPayload(b []byte) []byte {
	b = appendNodeID(b, d.Src)
	b = append(b, d.ProgramID)
	b = appendU16(b, d.Seq)
	b = appendU16(b, d.Total)
	return append(b, d.Payload...)
}

func (d *MoapData) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	d.Src = r.nodeID()
	d.ProgramID = r.u8()
	d.Seq = r.u16()
	d.Total = r.u16()
	if r.failed {
		return fmt.Errorf("malformed moap data payload (%d bytes)", len(b))
	}
	d.Payload = append(d.Payload[:0], r.rest()...)
	return nil
}

// MoapNak is a unicast retransmission request for the earliest packet
// missing from Src's sliding window.
type MoapNak struct {
	Src       NodeID
	DestID    NodeID
	ProgramID uint8
	Seq       uint16
}

// Kind implements Packet.
func (*MoapNak) Kind() Kind { return KindMoapNak }

// Dest implements Packet.
func (n *MoapNak) Dest() NodeID { return n.DestID }

// Source implements Packet.
func (n *MoapNak) Source() NodeID { return n.Src }

func (n *MoapNak) appendPayload(b []byte) []byte {
	b = appendNodeID(b, n.Src)
	b = appendNodeID(b, n.DestID)
	b = append(b, n.ProgramID)
	return appendU16(b, n.Seq)
}

func (n *MoapNak) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	n.Src = r.nodeID()
	n.DestID = r.nodeID()
	n.ProgramID = r.u8()
	n.Seq = r.u16()
	if !r.ok() {
		return fmt.Errorf("malformed moap nak payload (%d bytes)", len(b))
	}
	return nil
}

// XnpData carries one packet of the image from the base station in
// XNP's single-hop broadcast.
type XnpData struct {
	Src       NodeID
	ProgramID uint8
	Seq       uint16
	Total     uint16
	Payload   []byte
}

// Kind implements Packet.
func (*XnpData) Kind() Kind { return KindXnpData }

// Dest implements Packet.
func (*XnpData) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (d *XnpData) Source() NodeID { return d.Src }

func (d *XnpData) appendPayload(b []byte) []byte {
	b = appendNodeID(b, d.Src)
	b = append(b, d.ProgramID)
	b = appendU16(b, d.Seq)
	b = appendU16(b, d.Total)
	return append(b, d.Payload...)
}

func (d *XnpData) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	d.Src = r.nodeID()
	d.ProgramID = r.u8()
	d.Seq = r.u16()
	d.Total = r.u16()
	if r.failed {
		return fmt.Errorf("malformed xnp data payload (%d bytes)", len(b))
	}
	d.Payload = append(d.Payload[:0], r.rest()...)
	return nil
}

// XnpQueryStatus asks all single-hop receivers to report their first
// missing packet so the base station can run a retransmission round.
type XnpQueryStatus struct {
	Src       NodeID
	ProgramID uint8
}

// Kind implements Packet.
func (*XnpQueryStatus) Kind() Kind { return KindXnpQueryStatus }

// Dest implements Packet.
func (*XnpQueryStatus) Dest() NodeID { return Broadcast }

// Source implements Packet.
func (q *XnpQueryStatus) Source() NodeID { return q.Src }

func (q *XnpQueryStatus) appendPayload(b []byte) []byte {
	b = appendNodeID(b, q.Src)
	return append(b, q.ProgramID)
}

func (q *XnpQueryStatus) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	q.Src = r.nodeID()
	q.ProgramID = r.u8()
	if !r.ok() {
		return fmt.Errorf("malformed xnp query payload (%d bytes)", len(b))
	}
	return nil
}

// XnpStatusComplete is the Seq value reporting "nothing missing".
const XnpStatusComplete uint16 = 0xFFFF

// XnpStatus reports the first packet Src is missing (or
// XnpStatusComplete).
type XnpStatus struct {
	Src       NodeID
	DestID    NodeID
	ProgramID uint8
	Seq       uint16
}

// Kind implements Packet.
func (*XnpStatus) Kind() Kind { return KindXnpStatus }

// Dest implements Packet.
func (s *XnpStatus) Dest() NodeID { return s.DestID }

// Source implements Packet.
func (s *XnpStatus) Source() NodeID { return s.Src }

func (s *XnpStatus) appendPayload(b []byte) []byte {
	b = appendNodeID(b, s.Src)
	b = appendNodeID(b, s.DestID)
	b = append(b, s.ProgramID)
	return appendU16(b, s.Seq)
}

func (s *XnpStatus) decodePayload(b []byte) error {
	r := payloadReader{b: b}
	s.Src = r.nodeID()
	s.DestID = r.nodeID()
	s.ProgramID = r.u8()
	s.Seq = r.u16()
	if !r.ok() {
		return fmt.Errorf("malformed xnp status payload (%d bytes)", len(b))
	}
	return nil
}

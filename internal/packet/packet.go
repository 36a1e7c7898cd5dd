// Package packet defines the wire messages exchanged by MNP and by the
// baseline protocols (Deluge, MOAP, XNP), together with their binary
// codecs and framing.
//
// The frame layout mirrors a TinyOS TOS_Msg: a fixed header (dest
// address, AM type, group, length) followed by the payload and a CRC16.
// All radio traffic is physically broadcast; "destined" messages carry
// the destination in the header, and other nodes are free to snoop them
// — MNP's hidden-terminal defence depends on exactly this overhearing.
package packet

import (
	"encoding/binary"
	"fmt"
)

// NodeID identifies a mote. IDs are assigned by the deployment; the
// base station conventionally has ID 0. The type is 32 bits wide so
// deployments can exceed the 16-bit TOS_Msg address space (the sparse
// radio geometry simulates hundreds of thousands of nodes); on the wire
// an ID below wideEscape still occupies the classic two bytes, so every
// deployment that fit the old address space produces byte-identical
// frames.
type NodeID uint32

// Broadcast is the address that targets every node in radio range. It
// encodes as the classic 16-bit 0xFFFF on the wire.
const Broadcast NodeID = 0xFFFFFFFF

// String renders a NodeID for logs.
func (n NodeID) String() string {
	if n == Broadcast {
		return "bcast"
	}
	return fmt.Sprintf("n%d", uint32(n))
}

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. MNP kinds come first, then one block per baseline.
const (
	// MNP messages (paper §3).
	KindAdvertise Kind = iota + 1
	KindDownloadRequest
	KindStartDownload
	KindData
	KindEndDownload
	KindQuery
	KindRepairRequest
	KindStartSignal

	// Deluge baseline.
	KindDelugeAdv
	KindDelugeReq
	KindDelugeData

	// MOAP baseline.
	KindMoapPublish
	KindMoapSubscribe
	KindMoapData
	KindMoapNak

	// XNP baseline.
	KindXnpData
	KindXnpQueryStatus
	KindXnpStatus

	// Rateless coded dissemination (rlnc).
	KindRlncAdv
	KindRlncData

	// Gossip code propagation (gossip).
	KindGossipAdv
	KindGossipData
)

var kindNames = map[Kind]string{
	KindAdvertise:       "Advertise",
	KindDownloadRequest: "DownloadRequest",
	KindStartDownload:   "StartDownload",
	KindData:            "Data",
	KindEndDownload:     "EndDownload",
	KindQuery:           "Query",
	KindRepairRequest:   "RepairRequest",
	KindStartSignal:     "StartSignal",
	KindDelugeAdv:       "DelugeAdv",
	KindDelugeReq:       "DelugeReq",
	KindDelugeData:      "DelugeData",
	KindMoapPublish:     "MoapPublish",
	KindMoapSubscribe:   "MoapSubscribe",
	KindMoapData:        "MoapData",
	KindMoapNak:         "MoapNak",
	KindXnpData:         "XnpData",
	KindXnpQueryStatus:  "XnpQueryStatus",
	KindXnpStatus:       "XnpStatus",
	KindRlncAdv:         "RlncAdv",
	KindRlncData:        "RlncData",
	KindGossipAdv:       "GossipAdv",
	KindGossipData:      "GossipData",
}

// String returns the message-kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Class groups kinds into the three categories the paper's Figure 12
// plots: advertisements, download requests, and data.
type Class uint8

// Traffic classes for accounting.
const (
	ClassControl Class = iota + 1 // handshakes, queries, signals
	ClassAdvertisement
	ClassRequest
	ClassData
)

// ClassOf maps a kind to its accounting class.
func ClassOf(k Kind) Class {
	switch k {
	case KindAdvertise, KindDelugeAdv, KindMoapPublish, KindRlncAdv, KindGossipAdv:
		return ClassAdvertisement
	case KindDownloadRequest, KindDelugeReq, KindMoapSubscribe, KindMoapNak, KindRepairRequest:
		return ClassRequest
	case KindData, KindDelugeData, KindMoapData, KindXnpData, KindRlncData, KindGossipData:
		return ClassData
	default:
		return ClassControl
	}
}

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassAdvertisement:
		return "advertisement"
	case ClassRequest:
		return "request"
	case ClassData:
		return "data"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// FrameOverhead is the fixed per-frame cost in bytes for a narrow
// (sub-wideEscape) destination: destination address (2), AM type (1),
// group (1), length (1) and CRC (2), matching the TOS_Msg header the
// Mica-2 radio stack uses. A wide destination address adds
// wideExtraBytes; see appendNodeID.
const FrameOverhead = 7

// Packet is a decodable protocol message.
type Packet interface {
	// Kind identifies the message type.
	Kind() Kind
	// Dest is the logical destination; Broadcast for undirected
	// messages. Physically every message is broadcast.
	Dest() NodeID
	// Source is the transmitting node, filled by the sender.
	Source() NodeID
	// appendPayload encodes the message body (excluding framing).
	appendPayload(b []byte) []byte
	// decodePayload parses the message body.
	decodePayload(b []byte) error
}

// WireSize returns the number of bytes the packet occupies on air,
// driving both airtime and energy accounting.
func WireSize(p Packet) int {
	return nodeIDWireSize(p.Dest()) + 5 + len(p.appendPayload(nil))
}

// Encode serializes p into a self-describing frame.
func Encode(p Packet) []byte { return AppendEncode(nil, p) }

// AppendEncode serializes p into a self-describing frame appended to
// dst, reusing dst's capacity. A mote's MAC queue uses it to encode
// each frame at Send into a reused slot without allocating.
func AppendEncode(dst []byte, p Packet) []byte {
	start := len(dst)
	dst = appendNodeID(dst, p.Dest())
	dst = append(dst, byte(p.Kind()))
	dst = append(dst, 0x7d) // group, fixed
	dst = append(dst, 0)    // payload length, patched below
	lenAt := len(dst) - 1
	dst = p.appendPayload(dst)
	dst[lenAt] = byte(len(dst) - lenAt - 1)
	return binary.BigEndian.AppendUint16(dst, crc16(dst[start:]))
}

// Decode parses a frame produced by Encode and returns the typed
// message.
func Decode(frame []byte) (Packet, error) { return decode(frame, true) }

// DecodeTrusted parses a frame known to have been produced by Encode in
// this process, skipping the CRC verification that Decode performs. The
// simulated radio uses it on its own cached frames — corruption there
// is modelled by collision and BER sets, not by bit-flipping the frame
// bytes — so the checksum can never fail. Frames from outside the
// process must go through Decode.
func DecodeTrusted(frame []byte) (Packet, error) { return decode(frame, false) }

func decode(frame []byte, verifyCRC bool) (Packet, error) {
	return decodeWith(nil, frame, verifyCRC)
}

// decodeWith parses a frame, taking the message struct from cache when
// one is supplied (see DecodeCache) and from newByKind otherwise.
func decodeWith(cache *DecodeCache, frame []byte, verifyCRC bool) (Packet, error) {
	if len(frame) < FrameOverhead {
		return nil, fmt.Errorf("packet: frame too short (%d bytes)", len(frame))
	}
	if verifyCRC {
		body, crcBytes := frame[:len(frame)-2], frame[len(frame)-2:]
		if got, want := binary.BigEndian.Uint16(crcBytes), crc16(body); got != want {
			return nil, fmt.Errorf("packet: CRC mismatch (got %#04x, want %#04x)", got, want)
		}
	}
	kind, body, err := header(frame)
	if err != nil {
		return nil, err
	}
	var p Packet
	if cache != nil {
		p, err = cache.forKind(kind)
	} else {
		p, err = newByKind(kind)
	}
	if err != nil {
		return nil, err
	}
	if err := p.decodePayload(body); err != nil {
		return nil, fmt.Errorf("packet: decode %s: %w", kind, err)
	}
	return p, nil
}

// FrameKind returns the message kind of an encoded frame, read from its
// header: the framing is checked, the CRC and the payload are not. The
// radio uses it to account a frame it carries as bytes.
func FrameKind(frame []byte) (Kind, error) {
	kind, _, err := header(frame)
	return kind, err
}

// header checks a frame's framing — address, length field, overall
// size — and returns its kind and payload.
func header(frame []byte) (Kind, []byte, error) {
	if len(frame) < FrameOverhead {
		return 0, nil, fmt.Errorf("packet: frame too short (%d bytes)", len(frame))
	}
	_, destLen, err := readNodeID(frame)
	if err != nil {
		return 0, nil, fmt.Errorf("packet: bad destination address: %w", err)
	}
	if len(frame) < destLen+5 {
		return 0, nil, fmt.Errorf("packet: frame too short (%d bytes)", len(frame))
	}
	plen := int(frame[destLen+2])
	if len(frame) != destLen+5+plen {
		return 0, nil, fmt.Errorf("packet: length field %d disagrees with frame size %d", plen, len(frame))
	}
	return Kind(frame[destLen]), frame[destLen+3 : destLen+3+plen], nil
}

func newByKind(k Kind) (Packet, error) {
	switch k {
	case KindAdvertise:
		return &Advertise{}, nil
	case KindDownloadRequest:
		return &DownloadRequest{}, nil
	case KindStartDownload:
		return &StartDownload{}, nil
	case KindData:
		return &Data{}, nil
	case KindEndDownload:
		return &EndDownload{}, nil
	case KindQuery:
		return &Query{}, nil
	case KindRepairRequest:
		return &RepairRequest{}, nil
	case KindStartSignal:
		return &StartSignal{}, nil
	case KindDelugeAdv:
		return &DelugeAdv{}, nil
	case KindDelugeReq:
		return &DelugeReq{}, nil
	case KindDelugeData:
		return &DelugeData{}, nil
	case KindMoapPublish:
		return &MoapPublish{}, nil
	case KindMoapSubscribe:
		return &MoapSubscribe{}, nil
	case KindMoapData:
		return &MoapData{}, nil
	case KindMoapNak:
		return &MoapNak{}, nil
	case KindXnpData:
		return &XnpData{}, nil
	case KindXnpQueryStatus:
		return &XnpQueryStatus{}, nil
	case KindXnpStatus:
		return &XnpStatus{}, nil
	case KindRlncAdv:
		return &RlncAdv{}, nil
	case KindRlncData:
		return &RlncData{}, nil
	case KindGossipAdv:
		return &GossipAdv{}, nil
	case KindGossipData:
		return &GossipData{}, nil
	default:
		return nil, fmt.Errorf("packet: unknown kind %d", uint8(k))
	}
}

// crcTable[0] is the byte-indexed CCITT CRC table: the register after
// one byte. crcTable[n] is the same byte followed by n zero bytes, so
// crc16 can take four bytes per step (slicing-by-4): four independent
// lookups XOR-ed, instead of four lookups each waiting on the last.
var crcTable = func() (t [4][256]uint16) {
	for i := range t[0] {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[0][i] = crc
	}
	for n := 0; n < 3; n++ {
		for i, v := range t[n] {
			t[n+1][i] = v<<8 ^ t[0][v>>8]
		}
	}
	return t
}()

// crc16 is the CCITT CRC the CC1000 stack uses over the frame body.
func crc16(data []byte) uint16 {
	var crc uint16 = 0xFFFF
	for ; len(data) >= 4; data = data[4:] {
		// The 16-bit register folds into the first two bytes and is
		// shifted out entirely by the fourth.
		crc = crcTable[3][data[0]^byte(crc>>8)] ^ crcTable[2][data[1]^byte(crc)] ^
			crcTable[1][data[2]] ^ crcTable[0][data[3]]
	}
	for _, b := range data {
		crc = crc<<8 ^ crcTable[0][byte(crc>>8)^b]
	}
	return crc
}

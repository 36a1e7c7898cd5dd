package nodetest

import (
	"math/rand"
	"time"

	"mnp/internal/bitvec"
	"mnp/internal/packet"
)

// RandomPacket generates an arbitrary — possibly adversarial — protocol
// message: field values span the full encodable range, bit vectors may
// disagree with their declared sizes, and payloads vary from empty to
// oversized. Robustness tests feed these straight into OnPacket.
func RandomPacket(rng *rand.Rand) packet.Packet {
	src := packet.NodeID(rng.Intn(1 << 16))
	dst := packet.NodeID(rng.Intn(1 << 16))
	prog := uint8(rng.Intn(4))
	seg := uint8(rng.Intn(256))
	pkts := uint8(rng.Intn(256))
	payload := make([]byte, rng.Intn(40))
	rng.Read(payload)

	switch rng.Intn(22) {
	case 0:
		return &packet.Advertise{
			Src: src, ProgramID: prog, ProgramSegments: uint8(rng.Intn(256)),
			SegID: seg, SegNominal: pkts, TotalPackets: uint16(rng.Intn(1 << 16)),
			ReqCtr: uint8(rng.Intn(256)),
		}
	case 1:
		return &packet.DownloadRequest{
			Src: src, DestID: dst, ProgramID: prog, SegID: seg,
			SegPackets: pkts, EchoReqCtr: uint8(rng.Intn(256)),
			Missing: randomVector(rng),
		}
	case 2:
		return &packet.StartDownload{Src: src, ProgramID: prog, SegID: seg, SegPackets: pkts}
	case 3:
		return &packet.Data{Src: src, ProgramID: prog, SegID: seg, PacketID: uint8(rng.Intn(256)), Payload: payload}
	case 4:
		return &packet.EndDownload{Src: src, ProgramID: prog, SegID: seg}
	case 5:
		return &packet.Query{Src: src, ProgramID: prog, SegID: seg}
	case 6:
		return &packet.RepairRequest{Src: src, DestID: dst, ProgramID: prog, SegID: seg, PacketID: uint8(rng.Intn(256))}
	case 7:
		return &packet.StartSignal{Src: src, ProgramID: prog}
	case 8:
		return &packet.DelugeAdv{
			Src: src, ProgramID: prog, Version: uint8(rng.Intn(4)),
			NumPages: uint8(rng.Intn(256)), HavePages: uint8(rng.Intn(256)),
			PagePackets: pkts, TotalPackets: uint16(rng.Intn(1 << 16)),
		}
	case 9:
		return &packet.DelugeReq{
			Src: src, DestID: dst, ProgramID: prog, Page: seg,
			PagePackets: pkts, Missing: randomVector(rng),
		}
	case 10:
		return &packet.DelugeData{Src: src, ProgramID: prog, Page: seg, PacketID: uint8(rng.Intn(256)), Payload: payload}
	case 11:
		return &packet.MoapPublish{Src: src, ProgramID: prog, Version: 1, Total: uint16(rng.Intn(1 << 12))}
	case 12:
		return &packet.MoapSubscribe{Src: src, DestID: dst, ProgramID: prog}
	case 13:
		return &packet.MoapData{Src: src, ProgramID: prog, Seq: uint16(rng.Intn(1 << 12)), Total: uint16(rng.Intn(1 << 12)), Payload: payload}
	case 14:
		return &packet.MoapNak{Src: src, DestID: dst, ProgramID: prog, Seq: uint16(rng.Intn(1 << 12))}
	case 15:
		return &packet.XnpData{Src: src, ProgramID: prog, Seq: uint16(rng.Intn(1 << 12)), Total: uint16(rng.Intn(1 << 12)), Payload: payload}
	case 16:
		return &packet.XnpQueryStatus{Src: src, ProgramID: prog}
	case 17:
		return &packet.XnpStatus{Src: src, DestID: dst, ProgramID: prog, Seq: uint16(rng.Intn(1 << 16))}
	case 18:
		return &packet.RlncAdv{
			Src: src, ProgramID: prog, Segments: uint8(rng.Intn(256)), SegPackets: pkts,
			TotalPackets: uint16(rng.Intn(1 << 16)), PayloadLen: uint8(rng.Intn(64)), Tail: uint8(rng.Intn(64)),
			CompleteSegs: uint8(rng.Intn(256)), Rank: uint8(rng.Intn(256)),
		}
	case 19:
		coeffs := make([]byte, rng.Intn(int(pkts)+1))
		rng.Read(coeffs)
		return &packet.RlncData{Src: src, ProgramID: prog, Seg: seg, Coeffs: coeffs, Payload: payload}
	case 20:
		return &packet.GossipAdv{
			Src: src, ProgramID: prog, Segments: uint8(rng.Intn(256)), SegPackets: pkts,
			TotalPackets: uint16(rng.Intn(1 << 16)), PayloadLen: uint8(rng.Intn(64)), Tail: uint8(rng.Intn(64)),
			CompleteSegs: uint8(rng.Intn(256)), Have: uint8(rng.Intn(256)),
		}
	default:
		return &packet.GossipData{Src: src, ProgramID: prog, Seg: seg, Pkt: uint8(rng.Intn(256)), Payload: payload}
	}
}

// randomVector returns nil, or a bit vector whose length may not match
// any declared packet count.
func randomVector(rng *rand.Rand) *bitvec.Vector {
	if rng.Intn(3) == 0 {
		return nil
	}
	n := rng.Intn(bitvec.MaxBits) + 1
	v := bitvec.MustNew(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// Fuzz drives the attached protocol with steps random events: packet
// deliveries, timer firings, and clock jumps. The protocol must not
// panic; any panic propagates to the calling test.
func (r *Runtime) Fuzz(rng *rand.Rand, steps int) {
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			r.Deliver(RandomPacket(rng), packet.NodeID(rng.Intn(64)))
		case 2:
			r.FireNext()
		default:
			r.Clock += time.Duration(rng.Intn(1000)) * time.Millisecond
			// Fire a random pending timer rather than the soonest.
			ids := r.PendingTimers()
			if len(ids) > 0 {
				r.Fire(ids[rng.Intn(len(ids))])
			}
		}
	}
}

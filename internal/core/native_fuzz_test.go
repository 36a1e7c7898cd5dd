package core

import (
	"testing"

	"mnp/internal/bitvec"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// FuzzMNPPacketSequence is the native coverage-guided companion to the
// seed-based robustness tests in fuzz_test.go: the fuzzer mutates raw
// frame bytes, so it explores codec-level corruption (truncated
// frames, wild field values, CRC-valid-but-nonsense messages) that
// RandomPacket's well-typed generator cannot reach. Two properties
// must hold for every input: the state machine never panics, and the
// EEPROM write-once invariant survives whatever the frames claim.
//
// Input framing: repeated chunks of [len][len bytes of frame][fires],
// where fires%4 timers are dispatched after the frame. Undecodable
// frames are skipped, as a real node drops them.
func FuzzMNPPacketSequence(f *testing.F) {
	missing := bitvec.MustNew(8)
	missing.Set(3)
	for _, p := range []packet.Packet{
		&packet.Advertise{Src: 0, ProgramID: 1, ProgramSegments: 2, SegID: 1, SegNominal: 4, TotalPackets: 8, ReqCtr: 1},
		&packet.DownloadRequest{Src: 2, DestID: 1, ProgramID: 1, SegID: 1, SegPackets: 4, EchoReqCtr: 1, Missing: missing},
		&packet.StartDownload{Src: 0, ProgramID: 1, SegID: 1, SegPackets: 4},
		&packet.Data{Src: 0, ProgramID: 1, SegID: 1, PacketID: 0, Payload: make([]byte, 22)},
		&packet.EndDownload{Src: 0, ProgramID: 1, SegID: 1},
		&packet.Query{Src: 0, ProgramID: 1, SegID: 1},
		&packet.RepairRequest{Src: 2, DestID: 0, ProgramID: 1, SegID: 1, PacketID: 3},
		&packet.StartSignal{Src: 0, ProgramID: 1},
	} {
		frame := packet.Encode(p)
		chunk := append([]byte{byte(len(frame))}, frame...)
		chunk = append(chunk, 1)
		f.Add(chunk)
	}
	f.Add([]byte{0, 5, 3, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		rt := nodetest.New(1)
		m := New(Config{})
		rt.Attach(m)
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			frame := data[:n]
			data = data[n:]
			if p, err := packet.Decode(frame); err == nil {
				from := packet.NodeID(0)
				if s, ok := p.(interface{ Source() packet.NodeID }); ok {
					from = s.Source()
				}
				rt.Deliver(p, from)
			}
			if len(data) > 0 {
				fires := int(data[0] % 4)
				data = data[1:]
				for i := 0; i < fires; i++ {
					if !rt.FireNext() {
						break
					}
				}
			}
		}
		if w := rt.EEPROM.MaxWriteCount(); w > 1 {
			t.Fatalf("adversarial frames broke EEPROM write-once (max %d writes)", w)
		}
	})
}

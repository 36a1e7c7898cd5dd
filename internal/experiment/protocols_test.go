package experiment

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mnp/internal/bitvec"
	"mnp/internal/core"
	"mnp/internal/image"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// TestProtocolTable pins the one protocol list: every constant has a
// row with its display name, every row builds a base that holds the
// image and starts sending and a receiver that does not, and names
// parse case-insensitively but untrimmed.
func TestProtocolTable(t *testing.T) {
	display := map[ProtocolKind]string{
		ProtocolDeluge: "Deluge", ProtocolGossip: "Gossip", ProtocolMNP: "MNP",
		ProtocolMOAP: "MOAP", ProtocolRLNC: "RLNC", ProtocolXNP: "XNP",
	}
	if got, want := strings.Join(ProtocolNames(), " "), "deluge gossip mnp moap rlnc xnp"; got != want {
		t.Fatalf("ProtocolNames() = %s, want %s", got, want)
	}
	img, err := image.Random(1, 2, 5, image.WithSegmentPackets(4), image.WithPayloadSize(8))
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range display {
		row, ok := protocols[kind]
		if !ok {
			t.Errorf("%s: no row", kind)
			continue
		}
		if row.display != want || kind.String() != want {
			t.Errorf("%s: display %q, String %q, want %q", string(kind), row.display, kind.String(), want)
		}
		for _, name := range []string{string(kind), strings.ToUpper(string(kind))} {
			if p, err := ParseProtocol(name); p != kind || err != nil {
				t.Errorf("ParseProtocol(%q) = %q, %v; want %q", name, p, err, kind)
			}
		}
		base := nodetest.New(0)
		base.Attach(row.build(img, core.Variant{}))
		for i := 0; i < 8 && len(base.Frames) == 0 && base.FireNext(); i++ {
		}
		if !base.Done || len(base.Frames) == 0 {
			t.Errorf("%s base: complete %v, %d frames sent; want a complete base that sends", kind, base.Done, len(base.Frames))
		}
		mote := nodetest.New(1)
		mote.Attach(row.build(nil, core.Variant{}))
		if mote.Done {
			t.Errorf("%s receiver complete before it heard anything", kind)
		}
	}
	if len(protocols) != len(display) {
		t.Errorf("table has %d rows, want %d", len(protocols), len(display))
	}
	for _, name := range []string{"", "gcp", " mnp", "mnp "} {
		if p, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) = %q, want an error", name, p)
		}
	}
}

// frameOf wraps a message body in TOS_Msg framing: the broadcast
// address, the kind, the group, the length and a checksum that
// DecodeTrusted does not read.
func frameOf(kind packet.Kind, body []byte) []byte {
	f := append([]byte{0xFF, 0xFF, byte(kind), 0x7d, byte(len(body))}, body...)
	return append(f, 0, 0)
}

// chunkOf is p as one fuzz-input chunk: [kind][len][body][fires].
func chunkOf(p packet.Packet, fires byte) []byte {
	frame := packet.Encode(p)
	start := 2 + 3 // address, kind, group, length
	if frame[0] == 0xFF && frame[1] == 0xFE {
		start += 4 // a wide address
	}
	body := frame[start : len(frame)-2]
	c := append([]byte{byte(p.Kind()) - 1, byte(len(body))}, body...)
	return append(c, fires)
}

// FuzzProtocolPackets feeds arbitrary frames of every packet kind to
// every row of the protocols table, a receiver and a base of each, on the
// nodetest runtime. Whatever arrives, a protocol never panics, and
// every frame it sends in reply decodes and re-encodes to itself.
//
// Input: repeated chunks of [kind][len][len bytes of body][fires]. The
// framing is built here, so the fuzzer spends its mutations on message
// fields rather than on length bytes and checksums; a body that does
// not parse as its kind is dropped, as a mote drops it. fires%4 timers
// fire after each frame.
func FuzzProtocolPackets(f *testing.F) {
	img, err := image.Random(1, 2, 5, image.WithSegmentPackets(4), image.WithPayloadSize(8))
	if err != nil {
		f.Fatal(err)
	}
	missing := bitvec.MustNew(4)
	missing.Set(2)
	payload := make([]byte, 8)
	// A plausible exchange per protocol family, so the state machines get
	// past learning the image before the mutations start.
	for _, seq := range [][]packet.Packet{
		{
			&packet.Advertise{Src: 0, ProgramID: 1, ProgramSegments: 2, SegID: 1, SegNominal: 4, TotalPackets: 8, ReqCtr: 1},
			&packet.DownloadRequest{Src: 2, DestID: 1, ProgramID: 1, SegID: 1, SegPackets: 4, EchoReqCtr: 1, Missing: missing},
			&packet.StartDownload{Src: 0, ProgramID: 1, SegID: 1, SegPackets: 4},
			&packet.Data{Src: 0, ProgramID: 1, SegID: 1, PacketID: 0, Payload: payload},
			&packet.EndDownload{Src: 0, ProgramID: 1, SegID: 1},
			&packet.Query{Src: 0, ProgramID: 1, SegID: 1},
			&packet.RepairRequest{Src: 2, DestID: 0, ProgramID: 1, SegID: 1, PacketID: 3},
			&packet.StartSignal{Src: 0, ProgramID: 1},
		},
		{
			&packet.DelugeAdv{Src: 0, ProgramID: 1, Version: 1, NumPages: 1, HavePages: 1, PagePackets: 48, TotalPackets: 8},
			&packet.DelugeReq{Src: 2, DestID: 0, ProgramID: 1, Page: 1, PagePackets: 4, Missing: missing},
			&packet.DelugeData{Src: 0, ProgramID: 1, Page: 1, PacketID: 0, Payload: payload},
		},
		// Geometries no image has, which every protocol must drop: three
		// segments of four packets cannot hold eight, nor two 48-packet
		// pages eight.
		{
			&packet.Advertise{Src: 0, ProgramID: 1, ProgramSegments: 3, SegID: 3, SegNominal: 4, TotalPackets: 8, ReqCtr: 1},
			&packet.StartDownload{Src: 0, ProgramID: 1, SegID: 1, SegPackets: 4},
			&packet.Data{Src: 0, ProgramID: 1, SegID: 3, PacketID: 0, Payload: payload},
		},
		{
			&packet.DelugeAdv{Src: 0, ProgramID: 1, Version: 1, NumPages: 2, HavePages: 2, PagePackets: 48, TotalPackets: 8},
			&packet.DelugeReq{Src: 2, DestID: 1, ProgramID: 1, Page: 2, PagePackets: 4, Missing: missing},
			&packet.DelugeData{Src: 0, ProgramID: 1, Page: 2, PacketID: 0, Payload: payload},
		},
		{
			&packet.MoapPublish{Src: 0, ProgramID: 1, Version: 1, Total: 8},
			&packet.MoapSubscribe{Src: 2, DestID: 0, ProgramID: 1},
			&packet.MoapData{Src: 0, ProgramID: 1, Seq: 0, Total: 8, Payload: payload},
			&packet.MoapNak{Src: 2, DestID: 0, ProgramID: 1, Seq: 3},
		},
		{
			&packet.XnpData{Src: 0, ProgramID: 1, Seq: 0, Total: 8, Payload: payload},
			&packet.XnpQueryStatus{Src: 0, ProgramID: 1},
			&packet.XnpStatus{Src: 2, DestID: 0, ProgramID: 1, Seq: 3},
		},
		{
			&packet.RlncAdv{Src: 0, ProgramID: 1, Segments: 2, SegPackets: 4, TotalPackets: 8, PayloadLen: 8, Tail: 8, CompleteSegs: 2},
			&packet.RlncData{Src: 0, ProgramID: 1, Seg: 1, Coeffs: []byte{1, 0, 0, 0}, Payload: payload},
		},
		{
			&packet.GossipAdv{Src: 0, ProgramID: 1, Segments: 2, SegPackets: 4, TotalPackets: 8, PayloadLen: 8, Tail: 8, CompleteSegs: 2},
			&packet.GossipData{Src: 0, ProgramID: 1, Seg: 1, Pkt: 1, Payload: payload},
		},
	} {
		var in []byte
		for _, p := range seq {
			in = append(in, chunkOf(p, 1)...)
		}
		f.Add(in)
	}
	rng := rand.New(rand.NewSource(1))
	var mixed []byte
	for i := 0; i < 64; i++ {
		if c := chunkOf(nodetest.RandomPacket(rng), byte(i)); len(c) <= 256 {
			mixed = append(mixed, c...)
		}
	}
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		for _, name := range ProtocolNames() {
			for _, base := range []bool{false, true} {
				id, baseImg := packet.NodeID(1), (*image.Image)(nil)
				if base {
					id, baseImg = 0, img
				}
				rt := nodetest.New(id)
				rt.Attach(protocols[ProtocolKind(name)].build(baseImg, core.Variant{}))
				for in := data; len(in) >= 2; {
					kind := packet.Kind(in[0]%uint8(packet.KindGossipData) + 1)
					n := min(int(in[1]), len(in)-2)
					body := in[2 : 2+n]
					in = in[2+n:]
					if m, err := packet.DecodeTrusted(frameOf(kind, body)); err == nil {
						rt.Deliver(m, m.Source())
					}
					if len(in) > 0 {
						for i := 0; i < int(in[0]%4) && rt.FireNext(); i++ {
						}
						in = in[1:]
					}
				}
				for i, frame := range rt.Frames {
					m, err := packet.Decode(frame)
					if err != nil {
						t.Fatalf("%s (base %v): frame %d does not decode: %v", name, base, i, err)
					}
					if again := packet.Encode(m); !bytes.Equal(again, frame) {
						t.Fatalf("%s (base %v): frame %d re-encodes as %x, sent as %x", name, base, i, again, frame)
					}
				}
			}
		}
	})
}

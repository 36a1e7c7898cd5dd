package xnp

import (
	"testing"

	"mnp/internal/image"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// tinyImage: 16 packets of 4 bytes.
func tinyImage(t *testing.T) *image.Image {
	t.Helper()
	im, err := image.Random(1, 1, 31, image.WithSegmentPackets(16), image.WithPayloadSize(4))
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newBaseRig(t *testing.T) (*XNP, *nodetest.Runtime, *image.Image) {
	t.Helper()
	img := tinyImage(t)
	x := New(Config{Base: true, Image: img})
	rt := nodetest.New(0)
	rt.Attach(x)
	return x, rt, img
}

func countKind(rt *nodetest.Runtime, k packet.Kind) int {
	c := 0
	for _, p := range rt.Sent {
		if p.Kind() == k {
			c++
		}
	}
	return c
}

func TestBaseBroadcastPassInOrder(t *testing.T) {
	x, rt, _ := newBaseRig(t)
	_ = x
	for i := 0; i < 40 && rt.TimerPending(timerTxData); i++ {
		rt.Fire(timerTxData)
	}
	if got := countKind(rt, packet.KindXnpData); got != 16 {
		t.Fatalf("broadcast %d packets, want 16", got)
	}
	seq := 0
	for _, p := range rt.Sent {
		if d, ok := p.(*packet.XnpData); ok {
			if int(d.Seq) != seq || d.Total != 16 {
				t.Fatalf("bad data %+v at position %d", d, seq)
			}
			seq++
		}
	}
	// After the pass, the base enters query rounds.
	if !rt.TimerPending(timerQueryRound) {
		t.Fatal("no query round scheduled after the pass")
	}
}

func TestQueryRoundsCollectAndRetransmit(t *testing.T) {
	x, rt, _ := newBaseRig(t)
	for i := 0; i < 40 && rt.TimerPending(timerTxData); i++ {
		rt.Fire(timerTxData)
	}
	rt.Fire(timerQueryRound)
	if countKind(rt, packet.KindXnpQueryStatus) != 1 {
		t.Fatal("no query broadcast")
	}
	// Two fix requests come back.
	x.OnPacket(&packet.XnpStatus{Src: 9, DestID: 0, ProgramID: 1, Seq: 3}, 9)
	x.OnPacket(&packet.XnpStatus{Src: 9, DestID: 0, ProgramID: 1, Seq: 3}, 9) // duplicate ignored
	x.OnPacket(&packet.XnpStatus{Src: 8, DestID: 0, ProgramID: 1, Seq: 7}, 8)
	x.OnPacket(&packet.XnpStatus{Src: 8, DestID: 0, ProgramID: 1, Seq: packet.XnpStatusComplete}, 8)
	before := countKind(rt, packet.KindXnpData)
	rt.Fire(timerQueryRound) // sees pending fixes, reopens data pump
	rt.Fire(timerTxData)
	rt.Fire(timerTxData)
	var retrans []int
	for _, p := range rt.Sent[len(rt.Sent)-2:] {
		if d, ok := p.(*packet.XnpData); ok {
			retrans = append(retrans, int(d.Seq))
		}
	}
	if countKind(rt, packet.KindXnpData) != before+2 || len(retrans) != 2 ||
		retrans[0] != 3 || retrans[1] != 7 {
		t.Fatalf("retransmissions = %v, want [3 7]", retrans)
	}
}

func TestQuietRoundsSlowDown(t *testing.T) {
	_, rt, _ := newBaseRig(t)
	for i := 0; i < 40 && rt.TimerPending(timerTxData); i++ {
		rt.Fire(timerTxData)
	}
	// The first maxQuietRounds quiet rounds keep the query cadence;
	// after them the base keeps probing ten times slower, in case a
	// status reply was simply lost, and never dead-stops.
	for round := 1; round <= maxQuietRounds+2; round++ {
		if ids := rt.PendingTimers(); len(ids) != 1 || ids[0] != timerQueryRound {
			t.Fatalf("pending timers %v before round %d, want the query round alone", ids, round)
		}
		before := rt.Clock
		rt.FireNext()
		if round == 1 {
			continue
		}
		want := queryInterval
		if round-1 > maxQuietRounds {
			want *= 10
		}
		if gap := rt.Clock - before; gap != want {
			t.Fatalf("round %d came %v after round %d, want %v", round, gap, round-1, want)
		}
	}
}

func TestReceiverStoresAndCompletes(t *testing.T) {
	x := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(x)
	img := tinyImage(t)
	for seq := 0; seq < 16; seq++ {
		payload, _ := img.FlatPayload(seq)
		x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: uint16(seq), Total: 16, Payload: payload}, 0)
	}
	if !rt.Done {
		t.Fatal("receiver incomplete after all packets")
	}
	if rt.EEPROM.MaxWriteCount() != 1 {
		t.Fatal("write-once violated")
	}
	// Duplicates are not rewritten.
	p0, _ := img.FlatPayload(0)
	x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: 0, Total: 16, Payload: p0}, 0)
	if rt.EEPROM.MaxWriteCount() != 1 {
		t.Fatal("duplicate rewrote EEPROM")
	}
}

func TestReceiverReportsMissingBatch(t *testing.T) {
	x := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(x)
	img := tinyImage(t)
	// Receive only even packets: 8 missing.
	for seq := 0; seq < 16; seq += 2 {
		payload, _ := img.FlatPayload(seq)
		x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: uint16(seq), Total: 16, Payload: payload}, 0)
	}
	x.OnPacket(&packet.XnpQueryStatus{Src: 0, ProgramID: 1}, 0)
	if !rt.TimerPending(timerStatusReply) {
		t.Fatal("no status reply scheduled")
	}
	rt.Fire(timerStatusReply)
	if got := countKind(rt, packet.KindXnpStatus); got != 8 {
		t.Fatalf("status batch = %d, want all 8 missing", got)
	}
	var seqs []int
	for _, p := range rt.Sent {
		if s, ok := p.(*packet.XnpStatus); ok {
			seqs = append(seqs, int(s.Seq))
		}
	}
	for i, s := range seqs {
		if s != 2*i+1 {
			t.Fatalf("status seqs %v, want odd packets", seqs)
		}
	}
}

func TestCompleteReceiverStaysSilent(t *testing.T) {
	x := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(x)
	img := tinyImage(t)
	for seq := 0; seq < 16; seq++ {
		payload, _ := img.FlatPayload(seq)
		x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: uint16(seq), Total: 16, Payload: payload}, 0)
	}
	x.OnPacket(&packet.XnpQueryStatus{Src: 0, ProgramID: 1}, 0)
	rt.Fire(timerStatusReply)
	if countKind(rt, packet.KindXnpStatus) != 0 {
		t.Fatal("complete receiver responded to query")
	}
}

func TestReceiverIgnoresForeignProgram(t *testing.T) {
	x := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(x)
	img := tinyImage(t)
	p0, _ := img.FlatPayload(0)
	x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: 0, Total: 16, Payload: p0}, 0)
	x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 2, Seq: 1, Total: 16, Payload: p0}, 0)
	if rt.EEPROM.Slots() != 1 {
		t.Fatalf("stored %d slots, want 1 (foreign program ignored)", rt.EEPROM.Slots())
	}
}

// TestRebootedReceiverResumesFromFlash: flash outlives a reboot, so a
// receiver that learns the image from its first frame resumes from the
// packets it holds, scattered as a broadcast with losses leaves them,
// and writes no slot twice; its status reports name only what it lacks.
func TestRebootedReceiverResumesFromFlash(t *testing.T) {
	img := tinyImage(t)
	g := Geometry(img)
	x := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(x)
	for seq := 0; seq < 16; seq += 2 {
		u, pkt := g.Slot(seq)
		payload, _ := img.FlatPayload(seq)
		if err := rt.Store(u, pkt, g.PacketsIn(u), payload); err != nil {
			t.Fatal(err)
		}
	}
	p0, _ := img.FlatPayload(0)
	x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: 0, Total: 16, Payload: p0}, 0)
	x.OnPacket(&packet.XnpQueryStatus{Src: 0, ProgramID: 1}, 0)
	rt.Fire(timerStatusReply)
	if len(rt.Sent) == 0 {
		t.Fatal("no status reply")
	}
	for _, p := range rt.Sent {
		if s := p.(*packet.XnpStatus); s.Seq%2 == 0 {
			t.Fatalf("status asks for packet %d, which flash holds", s.Seq)
		}
	}
	for seq := range 16 {
		payload, _ := img.FlatPayload(seq)
		x.OnPacket(&packet.XnpData{Src: 0, ProgramID: 1, Seq: uint16(seq), Total: 16, Payload: payload}, 0)
	}
	if !rt.Done || rt.EEPROM.MaxWriteCount() != 1 || rt.EEPROM.Slots() != 16 {
		t.Fatalf("done %v, max writes %d, %d slots", rt.Done, rt.EEPROM.MaxWriteCount(), rt.EEPROM.Slots())
	}
}

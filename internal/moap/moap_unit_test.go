package moap

import (
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// tinyImage: 16 packets of 4 bytes (one MNP-nominal segment slice).
func tinyImage(t *testing.T) *image.Image {
	t.Helper()
	im, err := image.Random(1, 1, 23, image.WithSegmentPackets(16), image.WithPayloadSize(4))
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newSourceRig(t *testing.T) (*MOAP, *nodetest.Runtime, *image.Image) {
	t.Helper()
	img := tinyImage(t)
	m := New(Config{Base: true, Image: img})
	rt := nodetest.New(0)
	rt.Attach(m)
	return m, rt, img
}

func newSinkRig(t *testing.T) (*MOAP, *nodetest.Runtime) {
	t.Helper()
	m := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(m)
	return m, rt
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

func TestSourcePublishesPeriodically(t *testing.T) {
	m, rt, _ := newSourceRig(t)
	if !m.Complete() || !rt.Done {
		t.Fatal("base not complete")
	}
	rt.Fire(timerPublish)
	if countKind(rt, packet.KindMoapPublish) != 1 {
		t.Fatal("no publish after timer")
	}
	if !rt.TimerPending(timerPublish) {
		t.Fatal("publish not rescheduled")
	}
}

func TestPublishSuppressedByNeighbor(t *testing.T) {
	m, rt, _ := newSourceRig(t)
	rt.Clock = 10 * time.Second
	m.OnPacket(&packet.MoapPublish{Src: 5, ProgramID: 1, Version: 1, Total: 16}, 5)
	rt.Fire(timerPublish)
	if countKind(rt, packet.KindMoapPublish) != 0 {
		t.Fatal("published immediately after hearing a neighbor publish")
	}
	// Long after, publishing resumes.
	rt.Clock = 100 * time.Second
	rt.Fire(timerPublish)
	if countKind(rt, packet.KindMoapPublish) != 1 {
		t.Fatal("suppression never lifted")
	}
}

func TestSubscribeStartsFullImageStream(t *testing.T) {
	m, rt, _ := newSourceRig(t)
	m.OnPacket(&packet.MoapSubscribe{Src: 9, DestID: 0, ProgramID: 1}, 9)
	for i := 0; i < 40 && rt.TimerPending(timerTxData); i++ {
		rt.Fire(timerTxData)
	}
	if got := countKind(rt, packet.KindMoapData); got != 16 {
		t.Fatalf("streamed %d packets, want 16", got)
	}
	// Sequence is 0..15 in order.
	seq := 0
	for _, p := range rt.Sent {
		if d, ok := p.(*packet.MoapData); ok {
			if int(d.Seq) != seq {
				t.Fatalf("out of order: got %d want %d", d.Seq, seq)
			}
			seq++
		}
	}
}

func TestNakGetsPriorityRetransmission(t *testing.T) {
	m, rt, _ := newSourceRig(t)
	m.OnPacket(&packet.MoapSubscribe{Src: 9, DestID: 0, ProgramID: 1}, 9)
	rt.Fire(timerTxData) // seq 0 out
	m.OnPacket(&packet.MoapNak{Src: 9, DestID: 0, ProgramID: 1, Seq: 0}, 9)
	rt.Fire(timerTxData) // NAK'd packet repeats before seq 1
	var seqs []int
	for _, p := range rt.Sent {
		if d, ok := p.(*packet.MoapData); ok {
			seqs = append(seqs, int(d.Seq))
		}
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 0 {
		t.Fatalf("sequence %v, want [0 0]", seqs)
	}
	// Out-of-range and duplicate NAKs are ignored.
	m.OnPacket(&packet.MoapNak{Src: 9, DestID: 0, ProgramID: 1, Seq: 999}, 9)
	m.OnPacket(&packet.MoapNak{Src: 9, DestID: 3, ProgramID: 1, Seq: 1}, 9)
}

func TestPostPassNakReopensRepair(t *testing.T) {
	m, rt, _ := newSourceRig(t)
	m.OnPacket(&packet.MoapSubscribe{Src: 9, DestID: 0, ProgramID: 1}, 9)
	for i := 0; i < 40 && rt.TimerPending(timerTxData); i++ {
		rt.Fire(timerTxData)
	}
	before := countKind(rt, packet.KindMoapData)
	// The pass ended; a straggler NAK reopens the data pump.
	m.OnPacket(&packet.MoapNak{Src: 9, DestID: 0, ProgramID: 1, Seq: 7}, 9)
	rt.Fire(timerTxData)
	if got := countKind(rt, packet.KindMoapData); got != before+1 {
		t.Fatalf("post-pass NAK not served: %d -> %d", before, got)
	}
}

func TestReceiverSubscribesAndBecomesSource(t *testing.T) {
	m, rt := newSinkRig(t)
	img := tinyImage(t)
	m.OnPacket(&packet.MoapPublish{Src: 4, ProgramID: 1, Version: 1, Total: 16}, 4)
	if !rt.TimerPending(timerSubscribe) {
		t.Fatal("no subscribe scheduled")
	}
	rt.Fire(timerSubscribe)
	if countKind(rt, packet.KindMoapSubscribe) != 1 {
		t.Fatal("no subscribe sent")
	}
	for seq := 0; seq < 16; seq++ {
		payload, _ := img.FlatPayload(seq)
		m.OnPacket(&packet.MoapData{Src: 4, ProgramID: 1, Seq: uint16(seq), Total: 16, Payload: payload}, 4)
	}
	if !m.Complete() || !rt.Done {
		t.Fatal("receiver did not complete")
	}
	// Hop-by-hop: the completed receiver now publishes.
	if !rt.TimerPending(timerPublish) {
		t.Fatal("completed receiver is not a publisher")
	}
}

func TestSlidingWindowRejectsFarAheadPackets(t *testing.T) {
	m := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(m)
	img, err := image.Random(1, 2, 29, image.WithSegmentPackets(window), image.WithPayloadSize(4))
	if err != nil {
		t.Fatal(err)
	}
	total := uint16(img.TotalPackets())
	m.OnPacket(&packet.MoapPublish{Src: 4, ProgramID: 1, Version: 1, Total: total}, 4)
	rt.Fire(timerSubscribe)
	// seq window+8 is outside [0, window): dropped, and a NAK for 0 goes out.
	far := window + 8
	pFar, _ := img.FlatPayload(far)
	m.OnPacket(&packet.MoapData{Src: 4, ProgramID: 1, Seq: uint16(far), Total: total, Payload: pFar}, 4)
	if rt.EEPROM.Slots() != 0 {
		t.Fatal("out-of-window packet stored")
	}
	nak, _ := func() (*packet.MoapNak, bool) {
		for i := len(rt.Sent) - 1; i >= 0; i-- {
			if n, ok := rt.Sent[i].(*packet.MoapNak); ok {
				return n, true
			}
		}
		return nil, false
	}()
	if nak == nil || nak.Seq != 0 {
		t.Fatalf("expected NAK for seq 0, got %+v", nak)
	}
	// In-window packets are stored.
	p2, _ := img.FlatPayload(2)
	m.OnPacket(&packet.MoapData{Src: 4, ProgramID: 1, Seq: 2, Total: total, Payload: p2}, 4)
	if rt.EEPROM.Slots() != 1 {
		t.Fatal("in-window packet not stored")
	}
}

func TestReceiverWatchdogNaksThenAbandons(t *testing.T) {
	m := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(m)
	m.OnPacket(&packet.MoapPublish{Src: 4, ProgramID: 1, Version: 1, Total: 16}, 4)
	rt.Fire(timerSubscribe)
	for n := 1; n <= maxNaks; n++ {
		rt.Fire(timerRxWatchdog)
		if got := countKind(rt, packet.KindMoapNak); got != n {
			t.Fatalf("NAKs after watchdog %d = %d, want %d", n, got, n)
		}
	}
	rt.Fire(timerRxWatchdog) // gives up
	if got := countKind(rt, packet.KindMoapNak); got != maxNaks || rt.TimerPending(timerRxWatchdog) {
		t.Fatalf("after giving up: %d NAKs (want %d), watchdog pending %v", got, maxNaks, rt.TimerPending(timerRxWatchdog))
	}
	// A later publish restarts the handshake.
	m.OnPacket(&packet.MoapPublish{Src: 4, ProgramID: 1, Version: 1, Total: 16}, 4)
	if !rt.TimerPending(timerSubscribe) {
		t.Fatal("abandoned fetch not restartable")
	}
}

// TestRebootedSinkResumesFromFlash: flash outlives a reboot, so a sink
// that learns the image resumes from the packets it holds and writes
// no slot twice; holding them all, it publishes instead of subscribing.
func TestRebootedSinkResumesFromFlash(t *testing.T) {
	img := tinyImage(t)
	g := Geometry(img)
	for _, held := range []int{10, 16} {
		m, rt := newSinkRig(t)
		for seq := range held {
			u, pkt := g.Slot(seq)
			payload, _ := img.FlatPayload(seq)
			if err := rt.Store(u, pkt, g.PacketsIn(u), payload); err != nil {
				t.Fatal(err)
			}
		}
		m.OnPacket(&packet.MoapPublish{Src: 5, ProgramID: 1, Version: 1, Total: 16}, 5)
		if full := held == 16; m.Complete() != full || rt.Done != full || rt.TimerPending(timerSubscribe) == full {
			t.Fatalf("holding %d of 16: complete %v, done %v, subscribing %v", held, m.Complete(), rt.Done, rt.TimerPending(timerSubscribe))
		}
		for seq := range 16 {
			payload, _ := img.FlatPayload(seq)
			m.OnPacket(&packet.MoapData{Src: 5, ProgramID: 1, Seq: uint16(seq), Total: 16, Payload: payload}, 5)
		}
		if !m.Complete() || !rt.TimerPending(timerPublish) || rt.EEPROM.MaxWriteCount() != 1 {
			t.Fatalf("holding %d of 16: complete %v, publishing %v, max writes %d",
				held, m.Complete(), rt.TimerPending(timerPublish), rt.EEPROM.MaxWriteCount())
		}
	}
}

package radio

import (
	"bytes"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// cleanParams is a channel with essentially perfect in-range links, so
// tests exercise topology/collision logic without random loss.
func cleanParams() Params {
	p := DefaultParams()
	p.BERFloor = 1e-12
	p.BERCeil = 1e-11
	p.AsymSigma = 0
	return p
}

type rxRecord struct {
	at   packet.NodeID
	pkt  packet.Packet
	meta RxMeta
}

type testNet struct {
	k   *sim.Kernel
	m   *Medium
	rxs []rxRecord
}

func newTestNet(t *testing.T, layout *topology.Layout, p Params) *testNet {
	t.Helper()
	k := sim.New(1)
	m, err := NewMedium(k, layout, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := &testNet{k: k, m: m}
	for i := 0; i < layout.N(); i++ {
		id := packet.NodeID(i)
		err := m.Register(id, func(pkt packet.Packet, meta RxMeta) {
			n.rxs = append(n.rxs, rxRecord{at: id, pkt: pkt, meta: meta})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func (n *testNet) allOn() {
	for i := 0; i < len(n.m.nodes); i++ {
		n.m.SetRadio(packet.NodeID(i), true)
	}
}

func adv(src packet.NodeID) *packet.Advertise {
	return &packet.Advertise{Src: src, ProgramID: 1, ProgramSegments: 1, SegID: 1, SegNominal: 8, TotalPackets: 8}
}

func TestNewMediumValidation(t *testing.T) {
	k := sim.New(1)
	l, _ := topology.Line(2, 10)
	if _, err := NewMedium(nil, l, DefaultParams(), 1); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewMedium(k, nil, DefaultParams(), 1); err == nil {
		t.Error("nil layout accepted")
	}
	p := DefaultParams()
	p.BERCeil = p.BERFloor
	if _, err := NewMedium(k, l, p, 1); err == nil {
		t.Error("BERCeil <= BERFloor accepted")
	}
}

func TestAirtimeMatchesBitrate(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	// 34 bytes at 19.2 kbps ≈ 14.17 ms.
	got := n.m.Airtime(34)
	bits := float64(34 * 8)
	want := time.Duration(bits / 19200 * float64(time.Second))
	if got != want {
		t.Fatalf("Airtime(34) = %v, want %v", got, want)
	}
}

func TestBasicDelivery(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	air, err := n.m.Transmit(0, adv(0), PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	if air <= 0 {
		t.Fatalf("airtime = %v", air)
	}
	n.k.Run(time.Second)
	if len(n.rxs) != 1 {
		t.Fatalf("got %d receptions, want 1", len(n.rxs))
	}
	r := n.rxs[0]
	if r.at != 1 || r.meta.From != 0 {
		t.Fatalf("delivered to %v from %v", r.at, r.meta.From)
	}
	got, ok := r.pkt.(*packet.Advertise)
	if !ok || got.Src != 0 || got.SegID != 1 {
		t.Fatalf("wrong packet delivered: %#v", r.pkt)
	}
}

// TestRxMetaNamesReceiver: every delivered frame's RxMeta.To is the
// mote whose handler got it, so one handler can serve a whole network.
func TestRxMetaNamesReceiver(t *testing.T) {
	l, err := topology.Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	for i := 0; i < l.N(); i++ {
		src := packet.NodeID(i)
		n.k.MustSchedule(time.Duration(i)*100*time.Millisecond, func() {
			if _, err := n.m.Transmit(src, adv(src), PowerSim); err != nil {
				t.Error(err)
			}
		})
	}
	n.k.Run(time.Duration(l.N()) * 100 * time.Millisecond)
	heard := make([]int, l.N())
	for _, r := range n.rxs {
		if r.meta.To != r.at {
			t.Fatalf("frame from %v delivered to %v with To %v", r.meta.From, r.at, r.meta.To)
		}
		heard[r.at]++
	}
	for id, c := range heard {
		if c == 0 {
			t.Fatalf("mote %d received nothing from its neighbours", id)
		}
	}
}

// TestTransmitFrame: the medium takes the kind from the frame header,
// refuses a malformed header, copies the frame so the caller may reuse
// its buffer at once, and hands a tap a packet decoded for it alone.
// Transmit is the same path behind an encode.
func TestTransmitFrame(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	var tapped []packet.Packet
	n.m.SetTap(func(_ packet.NodeID, p packet.Packet, _ time.Duration) { tapped = append(tapped, p) })
	if _, err := n.m.TransmitFrame(0, []byte{0xFF, 0xFF, byte(packet.KindAdvertise), 0x7d, 9, 0, 0}, PowerSim); err == nil {
		t.Fatal("a frame whose length field disagrees with its size was transmitted")
	}
	want := packet.Encode(adv(0))
	frame := append([]byte(nil), want...)
	if _, err := n.m.TransmitFrame(0, frame, PowerSim); err != nil {
		t.Fatal(err)
	}
	clear(frame) // reused before the frame has finished
	n.k.Run(time.Second)
	if len(n.rxs) != 1 || !bytes.Equal(packet.Encode(n.rxs[0].pkt), want) {
		t.Fatalf("delivered %v, want the frame as it was at TransmitFrame", n.rxs)
	}
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(2 * time.Second)
	if len(tapped) != 2 || tapped[0] == tapped[1] {
		t.Fatalf("tap saw %d packets (distinct %v), want 2 of its own", len(tapped), len(tapped) == 2 && tapped[0] != tapped[1])
	}
	for i, p := range tapped {
		if !bytes.Equal(packet.Encode(p), want) {
			t.Fatalf("tapped packet %d is %#v", i, p)
		}
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	l, _ := topology.Line(2, 100) // 100 ft apart, PowerSim range 27 ft
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	if len(n.rxs) != 0 {
		t.Fatalf("out-of-range delivery: %v", n.rxs)
	}
}

func TestHigherPowerExtendsRange(t *testing.T) {
	l, _ := topology.Line(2, 60) // beyond PowerSim (27ft), within PowerFull (70ft)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerFull); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	if len(n.rxs) != 1 {
		t.Fatalf("full-power delivery failed: %d receptions", len(n.rxs))
	}
}

func TestTransmitPreconditions(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err == nil {
		t.Fatal("transmit with radio off accepted")
	}
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), 99); err == nil {
		t.Fatal("unknown power level accepted")
	}
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err == nil {
		t.Fatal("overlapping transmit by same node accepted")
	}
	n.k.Run(time.Second)
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatalf("transmit after airtime rejected: %v", err)
	}
	n.m.Destroy(1)
	if _, err := n.m.Transmit(1, adv(1), PowerSim); err == nil {
		t.Fatal("destroyed node transmitted")
	}
	if !n.m.Destroyed(1) {
		t.Fatal("Destroyed not reported")
	}
}

func TestReceiverRadioOffDropsFrame(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.m.SetRadio(0, true)
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	if len(n.rxs) != 0 {
		t.Fatal("radio-off receiver got the frame")
	}
}

func TestRadioOnMidFrameDropsFrame(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.m.SetRadio(0, true)
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	// Receiver wakes 1 ms into the ~13 ms frame: missed the preamble.
	n.k.MustSchedule(time.Millisecond, func() { n.m.SetRadio(1, true) })
	n.k.Run(time.Second)
	if len(n.rxs) != 0 {
		t.Fatal("mid-frame wakeup still received")
	}
}

func TestRadioOffMidFrameDropsFrame(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.MustSchedule(time.Millisecond, func() { n.m.SetRadio(1, false) })
	n.k.Run(time.Second)
	if len(n.rxs) != 0 {
		t.Fatal("receiver that slept mid-frame still received")
	}
}

func TestCollisionCorruptsBothFrames(t *testing.T) {
	// Nodes 0 and 2 flank node 1; all within range of each other.
	l, _ := topology.Line(3, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	collisions := &countingSink{}
	n.m.SetSink(collisions)
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	// Node 2 starts 2 ms later, overlapping node 0's frame.
	n.k.MustSchedule(2*time.Millisecond, func() {
		if _, err := n.m.Transmit(2, adv(2), PowerSim); err != nil {
			t.Error(err)
		}
	})
	n.k.Run(time.Second)
	for _, r := range n.rxs {
		if r.at == 1 {
			t.Fatalf("node 1 received %v despite collision", r.pkt.Kind())
		}
	}
	if collisions.collided == 0 {
		t.Fatal("no collisions recorded")
	}
}

func TestHiddenTerminal(t *testing.T) {
	// 0 —25ft— 1 —25ft— 2 with 27 ft range: 0 and 2 cannot hear each
	// other (50 ft apart) but both reach 1. Simultaneous transmissions
	// collide at 1; carrier sense at 2 sees an idle channel while 0 is
	// transmitting.
	l, _ := topology.Line(3, 25)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	if n.m.Busy(2) {
		t.Fatal("node 2 hears node 0 from 50 ft at 27 ft range")
	}
	if !n.m.Busy(1) {
		t.Fatal("node 1 does not hear node 0")
	}
	if _, err := n.m.Transmit(2, adv(2), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	for _, r := range n.rxs {
		if r.at == 1 {
			t.Fatal("middle node survived the hidden-terminal collision")
		}
	}
}

func TestHalfDuplexTransmitterCannotReceive(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.MustSchedule(time.Millisecond, func() {
		if _, err := n.m.Transmit(1, adv(1), PowerSim); err != nil {
			t.Error(err)
		}
	})
	n.k.Run(time.Second)
	// Node 1 transmitted during node 0's frame, so it receives nothing;
	// node 0 likewise.
	if len(n.rxs) != 0 {
		t.Fatalf("half-duplex violated: %v receptions", len(n.rxs))
	}
}

func TestBusyAndTransmitting(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	if n.m.Busy(1) || n.m.Transmitting(0) {
		t.Fatal("idle channel reported busy")
	}
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	if !n.m.Busy(1) {
		t.Fatal("in-range node does not sense carrier")
	}
	if !n.m.Busy(0) {
		t.Fatal("transmitter does not sense own carrier")
	}
	if !n.m.Transmitting(0) {
		t.Fatal("Transmitting(0) = false mid-frame")
	}
	n.k.Run(time.Second)
	if n.m.Busy(1) || n.m.Transmitting(0) {
		t.Fatal("channel busy after frame ended")
	}
}

func TestNeighbors(t *testing.T) {
	l, _ := topology.Grid(3, 3, 10)
	n := newTestNet(t, l, cleanParams())
	got, err := n.m.Neighbors(4, PowerSim) // 27 ft: all 8 within 14.2 ft... all in 3x3
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("center neighbors = %d, want 8", len(got))
	}
	if _, err := n.m.Neighbors(4, 1234); err == nil {
		t.Fatal("unknown power accepted")
	}
}

func TestLinkBERMonotonicInDistance(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	prev := -1.0
	for d := 0.0; d <= 27; d += 3 {
		ber := n.m.geo.linkBER(d, 27, n.m.linkNoise(0, 1))
		if ber < prev {
			t.Fatalf("BER decreased with distance at %g ft", d)
		}
		prev = ber
	}
	if got := n.m.geo.linkBER(30, 27, n.m.linkNoise(0, 1)); got != 1 {
		t.Fatalf("beyond-range BER = %g, want 1", got)
	}
}

func TestLinkNoiseDeterministicAndAsymmetric(t *testing.T) {
	a := linkNoise(7, 1, 2, 0.3)
	b := linkNoise(7, 1, 2, 0.3)
	if a != b {
		t.Fatal("link noise not deterministic")
	}
	if a < 0.25 || a > 4 {
		t.Fatalf("link noise %g outside clamp", a)
	}
	// Asymmetry: at least some links must differ between directions.
	diff := 0
	for i := 0; i < 50; i++ {
		x := linkNoise(7, packet.NodeID(i), packet.NodeID(i+1), 0.3)
		y := linkNoise(7, packet.NodeID(i+1), packet.NodeID(i), 0.3)
		if x != y {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("all links symmetric")
	}
}

func TestLossyLinkDropsSomeFrames(t *testing.T) {
	// At ~90% of range the per-frame loss must be substantial.
	p := DefaultParams()
	p.AsymSigma = 0
	l, _ := topology.Line(2, 24) // 24/27 = 0.89 of range
	n := newTestNet(t, l, p)
	n.allOn()
	sent, got := 200, 0
	var fire func(i int)
	fire = func(i int) {
		if i == sent {
			return
		}
		if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
			t.Error(err)
			return
		}
		n.k.MustSchedule(20*time.Millisecond, func() { fire(i + 1) })
	}
	fire(0)
	n.k.Run(time.Minute)
	got = len(n.rxs)
	if got == 0 {
		t.Fatal("edge-of-range link delivered nothing at all")
	}
	if got == sent {
		t.Fatal("edge-of-range link was lossless")
	}
}

type countingSink struct {
	sent, received, collided int
}

func (s *countingSink) FrameSent(packet.NodeID, packet.Kind, int) { s.sent++ }
func (s *countingSink) FrameReceived(packet.NodeID, packet.NodeID, packet.Kind, int) {
	s.received++
}
func (s *countingSink) FrameCollided(packet.NodeID, packet.NodeID, packet.Kind) { s.collided++ }

func TestSinkCountsTraffic(t *testing.T) {
	l, _ := topology.Grid(1, 3, 10)
	n := newTestNet(t, l, cleanParams())
	n.allOn()
	s := &countingSink{}
	n.m.SetSink(s)
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
	if s.sent != 1 {
		t.Fatalf("sent = %d", s.sent)
	}
	if s.received != 2 { // both other nodes in range
		t.Fatalf("received = %d, want 2", s.received)
	}
	n.m.SetSink(nil) // resets to NopSink without panicking
	if _, err := n.m.Transmit(0, adv(0), PowerSim); err != nil {
		t.Fatal(err)
	}
	n.k.Run(time.Second)
}

func TestRegisterOutOfRange(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	if err := n.m.Register(99, nil); err == nil {
		t.Fatal("out-of-range register accepted")
	}
}

func TestSetRadioIdempotentAndDestroySticky(t *testing.T) {
	l, _ := topology.Line(2, 10)
	n := newTestNet(t, l, cleanParams())
	n.m.SetRadio(0, true)
	n.m.SetRadio(0, true)
	if !n.m.RadioOn(0) {
		t.Fatal("radio not on")
	}
	n.m.Destroy(0)
	n.m.SetRadio(0, true)
	if n.m.RadioOn(0) {
		t.Fatal("destroyed node's radio turned on")
	}
}

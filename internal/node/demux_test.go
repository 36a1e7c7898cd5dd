package node

import (
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// subProto records its own runtime and deliveries.
type subProto struct {
	rt      Runtime
	packets []packet.Packet
	timers  []TimerID
}

func (p *subProto) Init(rt Runtime) error { p.rt = rt; return nil }
func (p *subProto) OnPacket(pk packet.Packet, _ packet.NodeID) {
	p.packets = append(p.packets, pk)
}
func (p *subProto) OnTimer(id TimerID) { p.timers = append(p.timers, id) }

func demuxRig(t *testing.T) (*sim.Kernel, *Node, *Demux, *subProto, *subProto) {
	t.Helper()
	k := sim.New(1)
	l, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := radio.DefaultParams()
	p.BERFloor, p.BERCeil, p.AsymSigma = 1e-12, 1e-11, 0
	m, err := radio.NewMedium(k, l, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &subProto{}, &subProto{}
	d, err := NewDemux(ProgramClassifier(1, 2), a, b)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(l, func(id packet.NodeID) (Protocol, Config) {
		if id == 0 {
			return d, Config{TxPower: radio.PowerSim}
		}
		return &subProto{}, Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	return k, nw.Node(0), d, a, b
}

func TestNewDemuxValidation(t *testing.T) {
	if _, err := NewDemux(nil, &subProto{}); err == nil {
		t.Error("nil classifier accepted")
	}
	if _, err := NewDemux(ProgramClassifier(1)); err == nil {
		t.Error("no subprotocols accepted")
	}
	if _, err := NewDemux(ProgramClassifier(1), nil); err == nil {
		t.Error("nil subprotocol accepted")
	}
}

func TestDemuxRoutesByProgram(t *testing.T) {
	_, _, d, a, b := demuxRig(t)
	d.OnPacket(&packet.Advertise{Src: 5, ProgramID: 1}, 5)
	d.OnPacket(&packet.Data{Src: 5, ProgramID: 2}, 5)
	d.OnPacket(&packet.Query{Src: 5, ProgramID: 3}, 5)     // unsubscribed
	d.OnPacket(&packet.DelugeAdv{Src: 5, ProgramID: 1}, 5) // non-MNP
	if len(a.packets) != 1 || a.packets[0].Kind() != packet.KindAdvertise {
		t.Fatalf("sub a got %v", a.packets)
	}
	if len(b.packets) != 1 || b.packets[0].Kind() != packet.KindData {
		t.Fatalf("sub b got %v", b.packets)
	}
	if d.Sub(0) != a || d.Sub(1) != b {
		t.Fatal("Sub accessor wrong")
	}
}

func TestDemuxTimerNamespacing(t *testing.T) {
	k, _, _, a, b := demuxRig(t)
	a.rt.SetTimer(3, 10*time.Millisecond)
	b.rt.SetTimer(3, 20*time.Millisecond)
	b.rt.SetTimer(5, 30*time.Millisecond)
	if !a.rt.TimerPending(3) || !b.rt.TimerPending(3) || !b.rt.TimerPending(5) {
		t.Fatal("timers not pending in their namespaces")
	}
	if a.rt.TimerPending(5) {
		t.Fatal("sub a sees sub b's timer")
	}
	a.rt.CancelTimer(3)
	if a.rt.TimerPending(3) {
		t.Fatal("cancel failed")
	}
	if !b.rt.TimerPending(3) {
		t.Fatal("cancel crossed namespaces")
	}
	k.Run(time.Second)
	if len(a.timers) != 0 {
		t.Fatalf("sub a fired %v", a.timers)
	}
	if len(b.timers) != 2 || b.timers[0] != 3 || b.timers[1] != 5 {
		t.Fatalf("sub b fired %v, want [3 5]", b.timers)
	}
}

func TestDemuxStoragePartitioned(t *testing.T) {
	_, n, _, a, b := demuxRig(t)
	if err := a.rt.Store(1, 0, 8, []byte{0xA}); err != nil {
		t.Fatal(err)
	}
	if err := b.rt.Store(1, 0, 8, []byte{0xB}); err != nil {
		t.Fatal(err)
	}
	if got := a.rt.Load(1, 0); len(got) != 1 || got[0] != 0xA {
		t.Fatalf("sub a read %v", got)
	}
	if got := b.rt.Load(1, 0); len(got) != 1 || got[0] != 0xB {
		t.Fatalf("sub b read %v", got)
	}
	if !a.rt.HasPacket(1, 0) || !b.rt.HasPacket(1, 0) {
		t.Fatal("HasPacket lost partitioned slots")
	}
	// Invalid segments are rejected instead of clobbering a sibling.
	if err := a.rt.Store(0, 0, 8, []byte{1}); err == nil {
		t.Fatal("segment 0 accepted")
	}
	if err := a.rt.Store(SegSpace, 0, 8, []byte{1}); err == nil {
		t.Fatal("out-of-space segment accepted")
	}
	if a.rt.Load(SegSpace, 0) != nil || a.rt.HasPacket(0, 0) {
		t.Fatal("out-of-space reads returned data")
	}
	// Erasing sub a's space leaves sub b intact.
	a.rt.EraseStore()
	if a.rt.HasPacket(1, 0) {
		t.Fatal("sub a erase failed")
	}
	if !b.rt.HasPacket(1, 0) {
		t.Fatal("sub a's erase clobbered sub b")
	}
	_ = n
}

func TestDemuxRadioRefcount(t *testing.T) {
	_, n, _, a, b := demuxRig(t)
	a.rt.RadioOn()
	b.rt.RadioOn()
	if !n.IsRadioOn() {
		t.Fatal("radio off with two wanters")
	}
	a.rt.RadioOff()
	if !n.IsRadioOn() {
		t.Fatal("radio off while sub b still wants it")
	}
	if !a.rt.IsRadioOn() {
		t.Fatal("IsRadioOn should reflect the shared radio")
	}
	b.rt.RadioOff()
	if n.IsRadioOn() {
		t.Fatal("radio on with no wanters")
	}
}

func TestDemuxDelegates(t *testing.T) {
	_, n, _, a, _ := demuxRig(t)
	if a.rt.ID() != n.ID() {
		t.Fatal("ID not delegated")
	}
	if a.rt.Now() != n.Now() {
		t.Fatal("Now not delegated")
	}
	if a.rt.Rand() == nil {
		t.Fatal("Rand not delegated")
	}
	a.rt.SetTxPower(radio.PowerFull)
	if a.rt.TxPower() != radio.PowerFull || n.TxPower() != radio.PowerFull {
		t.Fatal("power not delegated")
	}
	if a.rt.Battery() != n.Battery() {
		t.Fatal("Battery not delegated")
	}
	a.rt.Event(Event{Kind: EventGotSegment, Seg: 1})
	a.rt.RadioOn()
	if err := a.rt.Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err != nil {
		t.Fatalf("Send not delegated: %v", err)
	}
	for !n.QueueFull() {
		if a.rt.QueueFull() {
			t.Fatal("subprotocol sees a full queue before the mote's is")
		}
		if err := a.rt.Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.rt.QueueFull() {
		t.Fatal("QueueFull not delegated")
	}
}

func TestDemuxCompletionRequiresAll(t *testing.T) {
	_, n, _, a, b := demuxRig(t)
	a.rt.Complete()
	if n.Completed() {
		t.Fatal("node completed with one of two programs")
	}
	b.rt.Complete()
	if !n.Completed() {
		t.Fatal("node incomplete with both programs done")
	}
}

func TestProgramClassifierCoversAllMNPKinds(t *testing.T) {
	c := ProgramClassifier(7)
	msgs := []packet.Packet{
		&packet.Advertise{ProgramID: 7},
		&packet.DownloadRequest{ProgramID: 7},
		&packet.StartDownload{ProgramID: 7},
		&packet.Data{ProgramID: 7},
		&packet.EndDownload{ProgramID: 7},
		&packet.Query{ProgramID: 7},
		&packet.RepairRequest{ProgramID: 7},
		&packet.StartSignal{ProgramID: 7},
	}
	for _, m := range msgs {
		if c(m) != 0 {
			t.Errorf("%s not routed", m.Kind())
		}
	}
	if c(&packet.Advertise{ProgramID: 8}) != -1 {
		t.Error("unknown program routed")
	}
	if c(&packet.MoapData{ProgramID: 7}) != -1 {
		t.Error("non-MNP message routed")
	}
}

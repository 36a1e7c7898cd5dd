package node

import (
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// echoProto records everything delivered to it and exposes its runtime.
type echoProto struct {
	rt      Runtime
	packets []packet.Packet
	froms   []packet.NodeID
	timers  []TimerID
}

func (p *echoProto) Init(rt Runtime) error { p.rt = rt; return nil }
func (p *echoProto) OnPacket(pk packet.Packet, f packet.NodeID) {
	// A delivered packet is only valid during the callback — the radio
	// reuses decoded messages — so retain an independent copy via a
	// wire round-trip.
	cp, err := packet.Decode(packet.Encode(pk))
	if err != nil {
		panic(err)
	}
	p.packets = append(p.packets, cp)
	p.froms = append(p.froms, f)
}
func (p *echoProto) OnTimer(id TimerID) { p.timers = append(p.timers, id) }

type recordingObserver struct {
	events  []Event
	radioOn []bool
	writes  int
	reads   int
}

func (o *recordingObserver) NodeEvent(_ packet.NodeID, _ time.Duration, ev Event) {
	o.events = append(o.events, ev)
}
func (o *recordingObserver) RadioState(_ packet.NodeID, _ time.Duration, on bool) {
	o.radioOn = append(o.radioOn, on)
}
func (o *recordingObserver) StorageOp(_ packet.NodeID, write bool, _, _, _ int) {
	if write {
		o.writes++
	} else {
		o.reads++
	}
}

func cleanRadio() radio.Params {
	p := radio.DefaultParams()
	p.BERFloor = 1e-12
	p.BERCeil = 1e-11
	p.AsymSigma = 0
	return p
}

type rig struct {
	k      *sim.Kernel
	m      *radio.Medium
	nodes  []*Node
	protos []*echoProto
	obs    *recordingObserver
}

func newRig(t *testing.T, count int, spacing float64) *rig {
	t.Helper()
	k := sim.New(1)
	l, err := topology.Line(count, spacing)
	if err != nil {
		t.Fatal(err)
	}
	m, err := radio.NewMedium(k, l, cleanRadio(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{k: k, m: m, obs: &recordingObserver{}, protos: make([]*echoProto, count)}
	nw, err := NewNetwork(l, func(id packet.NodeID) (Protocol, Config) {
		r.protos[id] = &echoProto{}
		return r.protos[id], Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, r.obs })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	r.nodes = nw.Nodes
	return r
}

// TestNewNetworkValidation: NewNetwork refuses a factory, a placement
// or a mote it cannot build on, naming the mote.
func TestNewNetworkValidation(t *testing.T) {
	k := sim.New(1)
	l, _ := topology.Line(2, 10)
	m, _ := radio.NewMedium(k, l, cleanRadio(), 1)
	one, _ := topology.Line(1, 10)
	small, _ := radio.NewMedium(k, one, cleanRadio(), 1) // no room for n1
	echo := func(packet.NodeID) (Protocol, Config) { return &echoProto{}, Config{} }
	for _, c := range []struct {
		name  string
		f     Factory
		place func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer)
	}{
		{"nil factory", nil, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, nil }},
		{"nil placement", echo, nil},
		{"nil kernel", echo, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return nil, m, nil }},
		{"nil medium", echo, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, nil, nil }},
		{"nil protocol", func(packet.NodeID) (Protocol, Config) { return nil, Config{} },
			func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, nil }},
		{"out-of-layout mote", echo, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, small, nil }},
	} {
		if _, err := NewNetwork(l, c.f, c.place); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSendDeliversToNeighbor(t *testing.T) {
	r := newRig(t, 2, 10)
	r.nodes[0].RadioOn()
	r.nodes[1].RadioOn()
	if err := r.nodes[0].Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err != nil {
		t.Fatal(err)
	}
	r.k.Run(time.Second)
	if len(r.protos[1].packets) != 1 {
		t.Fatalf("neighbor got %d packets, want 1", len(r.protos[1].packets))
	}
	if r.protos[1].froms[0] != 0 {
		t.Fatalf("from = %v", r.protos[1].froms[0])
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	r := newRig(t, 2, 10)
	r.nodes[0].RadioOn()
	r.nodes[1].RadioOn()
	for i := 0; i < 5; i++ {
		err := r.nodes[0].Send(&packet.Data{Src: 0, ProgramID: 1, SegID: 1, PacketID: uint8(i), Payload: []byte{1}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.nodes[0].QueueLen() != 5 {
		t.Fatalf("QueueLen = %d", r.nodes[0].QueueLen())
	}
	r.k.Run(time.Minute)
	if got := len(r.protos[1].packets); got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
	for i, p := range r.protos[1].packets {
		d := p.(*packet.Data)
		if int(d.PacketID) != i {
			t.Fatalf("out of order: got packet %d at position %d", d.PacketID, i)
		}
	}
	if r.nodes[0].QueueLen() != 0 {
		t.Fatal("queue not drained")
	}

	// Dequeuing shifts the queue down and keeps its capacity, so once
	// every pool is warm a send/transmit cycle allocates nothing. (The
	// receiver is switched off: echoProto copies what it is handed.)
	r.nodes[1].RadioOff()
	q := &packet.Query{Src: 0, ProgramID: 1, SegID: 1}
	cycle := func() {
		if err := r.nodes[0].Send(q); err != nil {
			t.Fatal(err)
		}
		r.k.Run(r.k.Now() + time.Second)
	}
	// AllocsPerRun floors its mean: warm past any spare capacity a
	// front re-slice could still be consuming one slot at a time.
	for i := 0; i < DefaultQueueCap; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("a send/transmit cycle on a warm node allocates %.1f times, want 0", allocs)
	}
}

func TestQueueCapEnforced(t *testing.T) {
	r := newRig(t, 2, 10)
	r.nodes[0].RadioOn()
	var err error
	for i := 0; i < DefaultQueueCap+1; i++ {
		// QueueFull is the refusal, asked ahead of time.
		if full := r.nodes[0].QueueFull(); full != (i == DefaultQueueCap) {
			t.Fatalf("QueueFull = %v with %d frames queued", full, i)
		}
		err = r.nodes[0].Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1})
	}
	if err == nil {
		t.Fatal("queue overfill accepted")
	}
	// Protocols drop Send's error, and a saturated sender is refused
	// tens of thousands of times a run: a refusal must cost nothing.
	q := &packet.Query{Src: 0, ProgramID: 1, SegID: 1}
	refused := func() {
		if r.nodes[0].Send(q) == nil {
			t.Fatal("send accepted")
		}
	}
	if allocs := testing.AllocsPerRun(100, refused); allocs != 0 {
		t.Fatalf("a send refused by a full queue allocates %.1f times, want 0", allocs)
	}
	r.nodes[0].Crash()
	if allocs := testing.AllocsPerRun(100, refused); allocs != 0 {
		t.Fatalf("a send refused by a dead node allocates %.1f times, want 0", allocs)
	}
}

func TestRadioOffPausesQueueAndOnResumes(t *testing.T) {
	r := newRig(t, 2, 10)
	r.nodes[1].RadioOn()
	// Radio off: Send queues but nothing flows.
	if err := r.nodes[0].Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err != nil {
		t.Fatal(err)
	}
	r.k.Run(time.Second)
	if len(r.protos[1].packets) != 0 {
		t.Fatal("frame escaped a radio-off node")
	}
	// Radio on resumes the queued frame.
	r.nodes[0].RadioOn()
	r.k.Run(2 * time.Second)
	if len(r.protos[1].packets) != 1 {
		t.Fatalf("queued frame not sent after RadioOn: %d", len(r.protos[1].packets))
	}
}

// TestTimerRearmKeepsOneKernelEntry: a watchdog re-armed on every
// packet of a stream is one kernel entry throughout, fires once, at the
// last deadline, and in the order a cancel-and-reschedule at that
// moment would give it among the events of that instant. (Re-arm and
// cancel themselves are rows of the runtime contract.)
func TestTimerRearmKeepsOneKernelEntry(t *testing.T) {
	r := newRig(t, 1, 10)
	rt := r.nodes[0]
	const watchdog, timeout = TimerID(4), 3 * time.Second
	mark := func(id TimerID) func() {
		return func() { r.protos[0].timers = append(r.protos[0].timers, id) }
	}
	for i := 0; i < 1000; i++ {
		r.k.MustSchedule(30*time.Millisecond, func() {})
		r.k.Step()
		if i == 999 {
			r.k.MustSchedule(timeout, mark(-1))
		}
		rt.SetTimer(watchdog, timeout)
		if r.k.Pending() != 1+i/999 {
			t.Fatalf("after %d re-arms the kernel holds %d entries", i+1, r.k.Pending())
		}
	}
	r.k.MustSchedule(timeout, mark(-2))
	deadline := r.k.Now() + timeout
	if at, ok := r.k.NextEventAt(); !ok || at != deadline {
		t.Fatalf("next event at %v, want the last deadline %v", at, deadline)
	}
	r.k.Run(time.Hour)
	got := r.protos[0].timers
	if len(got) != 3 || got[0] != -1 || got[1] != watchdog || got[2] != -2 {
		t.Fatalf("firings = %v, want [-1 %d -2]", got, watchdog)
	}
}

// A timer event's argument names its mote and its ID: on a network,
// whose motes share one timer callback, each mote hears exactly the
// IDs it armed, the lowest and the highest an argument carries
// included, and an ID past those is refused.
func TestSharedTimerCallbackRoutesByMoteAndID(t *testing.T) {
	nw := newLineNetwork(t, 4)
	for _, n := range nw.Nodes {
		n.SetTimer(MaxTimerID, time.Duration(n.ID()+1)*time.Second)
		n.SetTimer(TimerID(n.ID()), time.Duration(n.ID()+1)*time.Millisecond)
	}
	nw.Node(0).kernel.Run(time.Minute)
	for _, n := range nw.Nodes {
		got := n.Protocol().(*echoProto).timers
		if len(got) != 2 || got[0] != TimerID(n.ID()) || got[1] != MaxTimerID {
			t.Fatalf("mote %v fired %v, want [%d %d]", n.ID(), got, n.ID(), MaxTimerID)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetTimer accepted an ID above MaxTimerID")
		}
	}()
	nw.Node(0).SetTimer(MaxTimerID+1, time.Second)
}

func TestKillSilencesNode(t *testing.T) {
	r := newRig(t, 2, 10)
	r.nodes[0].RadioOn()
	r.nodes[1].RadioOn()
	r.nodes[0].SetTimer(1, 10*time.Millisecond)
	r.nodes[0].Kill()
	if !r.nodes[0].Dead() {
		t.Fatal("Dead = false")
	}
	if err := r.nodes[0].Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err == nil {
		t.Fatal("dead node accepted Send")
	}
	r.nodes[0].SetTimer(2, time.Millisecond)
	r.k.Run(time.Second)
	if len(r.protos[0].timers) != 0 {
		t.Fatal("dead node's timer fired")
	}
	// Dead node receives nothing.
	if err := r.nodes[1].Send(&packet.Query{Src: 1, ProgramID: 1, SegID: 1}); err != nil {
		t.Fatal(err)
	}
	r.k.Run(2 * time.Second)
	if len(r.protos[0].packets) != 0 {
		t.Fatal("dead node received a packet")
	}
	// RadioOn after death is ignored.
	r.nodes[0].RadioOn()
	if r.nodes[0].IsRadioOn() {
		t.Fatal("dead node's radio turned on")
	}
}

// TestStorageRoundTripAndObserver: a store and a load are each one
// storage observation, a miss none. (The storage semantics are rows of
// the runtime contract.)
func TestStorageRoundTripAndObserver(t *testing.T) {
	r := newRig(t, 1, 10)
	n := r.nodes[0]
	if err := n.Store(1, 0, 8, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(1, 0); len(got) != 3 {
		t.Fatalf("Load = %v", got)
	}
	if n.Load(5, 5) != nil {
		t.Fatal("empty slot loaded data")
	}
	if r.obs.writes != 1 || r.obs.reads != 1 {
		t.Fatalf("observer counts: writes=%d reads=%d", r.obs.writes, r.obs.reads)
	}
}

func TestCompleteOnceAndEvents(t *testing.T) {
	r := newRig(t, 1, 10)
	n := r.nodes[0]
	n.Complete()
	at := n.CompletedAt()
	n.Complete() // idempotent
	if !n.Completed() || n.CompletedAt() != at {
		t.Fatal("Complete not idempotent")
	}
	n.Event(Event{Kind: EventBecameSender, Seg: 2})
	found := 0
	for _, ev := range r.obs.events {
		switch ev.Kind {
		case EventGotCode:
			found++
		case EventBecameSender:
			if ev.Seg == 2 {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("observer missing events: %v", r.obs.events)
	}
}

func TestTxPowerAndBattery(t *testing.T) {
	r := newRig(t, 1, 10)
	n := r.nodes[0]
	if n.TxPower() != radio.PowerSim {
		t.Fatalf("TxPower = %d", n.TxPower())
	}
	n.SetTxPower(radio.PowerFull)
	if n.TxPower() != radio.PowerFull {
		t.Fatal("SetTxPower ignored")
	}
	if n.Battery() != 1.0 {
		t.Fatalf("Battery = %v", n.Battery())
	}
	n.SetBattery(0.3)
	if n.Battery() != 0.3 {
		t.Fatal("SetBattery ignored")
	}
}

func TestRadioStateObserved(t *testing.T) {
	r := newRig(t, 1, 10)
	n := r.nodes[0]
	n.RadioOn()
	n.RadioOn() // idempotent: only one observation
	n.RadioOff()
	n.RadioOff()
	want := []bool{true, false}
	if len(r.obs.radioOn) != len(want) {
		t.Fatalf("radio transitions = %v", r.obs.radioOn)
	}
	for i := range want {
		if r.obs.radioOn[i] != want[i] {
			t.Fatalf("radio transitions = %v", r.obs.radioOn)
		}
	}
}

func TestCSMADefersOnBusyChannel(t *testing.T) {
	// Two in-range nodes each queue 5 frames to a common receiver over
	// a clean channel. Carrier sense must interleave them with few or
	// no collisions: nearly all 10 frames arrive.
	r := newRig(t, 3, 10)
	for _, n := range r.nodes {
		n.RadioOn()
	}
	for i := 0; i < 5; i++ {
		if err := r.nodes[0].Send(&packet.Data{Src: 0, ProgramID: 1, SegID: 1, PacketID: uint8(i), Payload: []byte{0}}); err != nil {
			t.Fatal(err)
		}
		if err := r.nodes[2].Send(&packet.Data{Src: 2, ProgramID: 1, SegID: 1, PacketID: uint8(i), Payload: []byte{2}}); err != nil {
			t.Fatal(err)
		}
	}
	r.k.Run(time.Minute)
	got := len(r.protos[1].packets)
	if got < 8 {
		t.Fatalf("middle node received %d/10 frames; CSMA not deferring", got)
	}
}

// TestNetworkDeliversAcrossMedia: a network whose placement splits its
// motes over two media (even IDs on one, odd on the other) still hands
// every frame to the protocol of the mote it reached, through the one
// handler the network registers for all of them.
func TestNetworkDeliversAcrossMedia(t *testing.T) {
	k := sim.New(1)
	l, err := topology.Line(4, 5) // every mote within range of every other
	if err != nil {
		t.Fatal(err)
	}
	var media [2]*radio.Medium
	for i := range media {
		if media[i], err = radio.NewMedium(k, l, cleanRadio(), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	protos := make([]*echoProto, l.N())
	nw, err := NewNetwork(l, func(id packet.NodeID) (Protocol, Config) {
		protos[id] = &echoProto{}
		return protos[id], Config{TxPower: radio.PowerSim}
	}, func(id packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, media[id%2], nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	for _, n := range nw.Nodes {
		n.RadioOn()
		if err := n.Send(&packet.Data{Src: n.ID(), ProgramID: 1, SegID: 1, Payload: []byte{byte(n.ID())}}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Minute)
	for id, p := range protos {
		peer := packet.NodeID(id ^ 2) // the other mote on the same medium
		if len(p.froms) != 1 || p.froms[0] != peer {
			t.Fatalf("mote %d heard %v, want exactly its medium's peer %v", id, p.froms, peer)
		}
		if d, ok := p.packets[0].(*packet.Data); !ok || d.Src != peer || d.Payload[0] != byte(peer) {
			t.Fatalf("mote %d got %#v from %v", id, p.packets[0], peer)
		}
	}
}

func TestNetworkLifecycle(t *testing.T) {
	k := sim.New(1)
	l, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := radio.NewMedium(k, l, cleanRadio(), 1)
	if err != nil {
		t.Fatal(err)
	}
	protos := map[packet.NodeID]*echoProto{}
	place := func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, nil }
	nw, err := NewNetwork(l, func(id packet.NodeID) (Protocol, Config) {
		p := &echoProto{}
		protos[id] = p
		return p, Config{TxPower: radio.PowerSim}
	}, place)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	for id, p := range protos {
		if p.rt == nil {
			t.Fatalf("node %v not initialized", id)
		}
	}
	if nw.CompletedCount() != 0 || nw.AllCompleted() {
		t.Fatal("fresh network reports completion")
	}
	nw.Node(0).Complete()
	nw.Node(1).Complete()
	nw.Node(2).Kill() // dead nodes don't block coverage
	if !nw.AllCompleted() {
		t.Fatal("AllCompleted false with all live nodes done")
	}
	if nw.CompletedCount() != 2 {
		t.Fatalf("CompletedCount = %d", nw.CompletedCount())
	}
	if nw.CompletionTime() != nw.Node(1).CompletedAt() && nw.CompletionTime() != nw.Node(0).CompletedAt() {
		t.Fatal("CompletionTime not max of completions")
	}
	if !k.RunUntil(nw.AllCompleted, time.Second) {
		t.Fatal("RunUntil(AllCompleted) false when already complete")
	}
}

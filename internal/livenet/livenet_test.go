package livenet

import (
	"testing"
	"time"

	"mnp/internal/core"
	"mnp/internal/deluge"
	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

func cleanRadio() radio.Params {
	p := radio.DefaultParams()
	p.BERFloor = 1e-9
	p.BERCeil = 1e-8
	p.AsymSigma = 0
	return p
}

func mnpFactory(t *testing.T, img *image.Image) func(id packet.NodeID) node.Protocol {
	t.Helper()
	return func(id packet.NodeID) node.Protocol {
		cfg := core.DefaultConfig()
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		return core.New(cfg)
	}
}

func TestNewValidation(t *testing.T) {
	l, _ := topology.Line(2, 10)
	f := func(packet.NodeID) node.Protocol { return core.New(core.DefaultConfig()) }
	if _, err := New(Config{Radio: cleanRadio()}, f); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := New(Config{Layout: l, Radio: cleanRadio()}, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := New(Config{Layout: l, Radio: cleanRadio(), TimeScale: 0.5}, f); err == nil {
		t.Error("sub-1 time scale accepted")
	}
	if _, err := New(Config{Layout: l, Radio: cleanRadio(), Power: 4242}, f); err == nil {
		t.Error("unknown power accepted")
	}
}

func TestLiveDisseminationTwoNodes(t *testing.T) {
	img, err := image.Random(1, 1, 3, image.WithSegmentPackets(16), image.WithPayloadSize(8))
	if err != nil {
		t.Fatal(err)
	}
	l, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Layout: l, Radio: cleanRadio(), TimeScale: 400, Seed: 1}, mnpFactory(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if !n.WaitAllComplete(20 * time.Second) {
		t.Fatalf("live dissemination incomplete: %d/2", n.CompletedCount())
	}
	data, err := img.Reassemble(func(seg, pkt int) []byte { return n.Store(1).Read(seg, pkt) })
	if err != nil {
		t.Fatal(err)
	}
	if !img.Verify(data) {
		t.Fatal("image mismatch over live runtime")
	}
}

func TestLiveDisseminationMultihop(t *testing.T) {
	img, err := image.Random(1, 1, 5, image.WithSegmentPackets(16), image.WithPayloadSize(8))
	if err != nil {
		t.Fatal(err)
	}
	// 1×4 line at 20 ft spacing: multihop at PowerSim range.
	l, err := topology.Line(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Layout: l, Radio: cleanRadio(), TimeScale: 400, Seed: 2}, mnpFactory(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if !n.WaitAllComplete(40 * time.Second) {
		t.Fatalf("live multihop incomplete: %d/4", n.CompletedCount())
	}
	for i := 1; i < 4; i++ {
		data, err := img.Reassemble(func(seg, pkt int) []byte { return n.Store(packet.NodeID(i)).Read(seg, pkt) })
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !img.Verify(data) {
			t.Fatalf("node %d image mismatch", i)
		}
		if n.Store(packet.NodeID(i)).MaxWriteCount() > 1 {
			t.Fatalf("node %d rewrote EEPROM", i)
		}
	}
}

func TestLiveDelugeDissemination(t *testing.T) {
	// The live runtime is protocol-agnostic: the Deluge baseline runs
	// on goroutines too.
	raw := make([]byte, 96*8) // 96 packets of 8 bytes = 2 pages of 48
	for i := range raw {
		raw[i] = byte(i * 13)
	}
	img, err := image.New(1, raw, image.WithPayloadSize(8))
	if err != nil {
		t.Fatal(err)
	}
	l, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Layout: l, Radio: cleanRadio(), TimeScale: 400, Seed: 6}, func(id packet.NodeID) node.Protocol {
		cfg := deluge.DefaultConfig()
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		return deluge.New(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if !n.WaitAllComplete(30 * time.Second) {
		t.Fatalf("live Deluge incomplete: %d/3", n.CompletedCount())
	}
}

func TestBatteryAssignment(t *testing.T) {
	img, err := image.Random(1, 1, 8, image.WithSegmentPackets(8), image.WithPayloadSize(8))
	if err != nil {
		t.Fatal(err)
	}
	l, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Layout: l, Radio: cleanRadio(), TimeScale: 400, Seed: 7,
		Battery: func(id packet.NodeID) float64 {
			if id == 1 {
				return 0.2
			}
			return 1.0
		},
	}, mnpFactory(t, img))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if got := n.nodes[1].Battery(); got != 0.2 {
		t.Fatalf("battery = %v", got)
	}
}

// idle is a protocol that does nothing.
type idle struct{}

func (idle) Init(node.Runtime)                     {}
func (idle) OnPacket(packet.Packet, packet.NodeID) {}
func (idle) OnTimer(node.TimerID)                  {}

// TestRuntimeContract holds a live mote to the contract node.Node
// keeps. While the network runs a mote's runtime belongs to its
// goroutine, so the subject is node 0 of a stopped two-mote network:
// its Sends stay on the hub, where the test reads them back as bytes.
// Two rows are waived: timer firing (NoFiring says why) and
// crash-restart, since a live mote has no power-failure model — faults
// are injected only into simulated deployments.
func TestRuntimeContract(t *testing.T) {
	nodetest.RunContract(t, nodetest.Contract{
		New: func(t *testing.T, p node.Protocol) nodetest.Subject {
			l, err := topology.Line(2, 10)
			if err != nil {
				t.Fatal(err)
			}
			n, err := New(Config{Layout: l, Radio: cleanRadio(), Seed: 1}, func(id packet.NodeID) node.Protocol {
				if id == 0 {
					return p
				}
				return idle{}
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Stop() // Init has run: a mote's loop starts with it
			ln := n.nodes[0]
			return nodetest.Subject{
				Aired: func() [][]byte {
					var frames [][]byte
					for {
						select {
						case tx := <-n.hub:
							frames = append(frames, tx.frame)
						default:
							return frames
						}
					}
				},
				Refusals: []nodetest.Refusal{
					{Name: "radio-off", Apply: ln.RadioOff},
					{Name: "medium-congested", Apply: func() {
						for !ln.QueueFull() {
							if err := ln.Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err != nil {
								t.Fatal(err)
							}
						}
					}},
				},
			}
		},
		NoFiring: "livenet timers are time.AfterFunc on the wall clock, delivered through the mote's " +
			"goroutine, so their firing cannot be stepped to an instant",
	})
}

func TestStopIsIdempotentAndTerminates(t *testing.T) {
	img, err := image.Random(1, 1, 7, image.WithSegmentPackets(8), image.WithPayloadSize(8))
	if err != nil {
		t.Fatal(err)
	}
	l, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Layout: l, Radio: cleanRadio(), TimeScale: 400, Seed: 3}, mnpFactory(t, img))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	n.Stop()
	n.Stop() // second call must not panic or hang
}

// timerProto is a minimal protocol that marks itself complete when a
// fixed virtual-time timer fires — enough to observe time compression
// without a full dissemination.
type timerProto struct {
	rt      node.Runtime
	virtual time.Duration
}

func (p *timerProto) Init(rt node.Runtime) {
	p.rt = rt
	rt.RadioOn()
	rt.SetTimer(1, p.virtual)
}
func (p *timerProto) OnPacket(packet.Packet, packet.NodeID) {}
func (p *timerProto) OnTimer(id node.TimerID) {
	if id == 1 {
		p.rt.Complete()
	}
}

// TestNonDefaultTimeScale pins the two contracts of a non-default
// TimeScale: a zero value falls back to 200, and an explicit value
// compresses wall time, so a 30-second virtual timer at scale 600
// fires in ~50 ms instead of 30 s.
func TestNonDefaultTimeScale(t *testing.T) {
	l, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(packet.NodeID) node.Protocol {
		return &timerProto{virtual: 30 * time.Second}
	}

	n, err := New(Config{Layout: l, Radio: cleanRadio()}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.TimeScale != 200 {
		n.Stop()
		t.Fatalf("default TimeScale = %v, want 200", n.cfg.TimeScale)
	}
	n.Stop()

	n, err = New(Config{Layout: l, Radio: cleanRadio(), TimeScale: 600}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	begin := time.Now()
	// Generous bound against a loaded CI box, but far below the 30 s
	// an uncompressed timer would take.
	if !n.WaitAllComplete(10 * time.Second) {
		t.Fatalf("virtual timers did not fire: %d/2 complete", n.CompletedCount())
	}
	if wall := time.Since(begin); wall >= 30*time.Second {
		t.Fatalf("completion took %v wall time; TimeScale not applied", wall)
	}
	// Virtual clocks must have advanced at least to the timer deadline.
	for _, ln := range n.nodes {
		if now := ln.Now(); now < 30*time.Second {
			t.Fatalf("node %v virtual clock = %v, want >= 30s", ln.id, now)
		}
	}
}

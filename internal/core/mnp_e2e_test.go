package core

import (
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/invariant"
	"mnp/internal/metrics"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// testnet bundles a full simulated MNP deployment. Every net built by
// buildNet runs with the online protocol-invariant checker attached;
// verifyAll enforces it.
type testnet struct {
	kernel  *sim.Kernel
	medium  *radio.Medium
	network *node.Network
	img     *image.Image
	protos  []*MNP
	checker *invariant.Checker
}

type netOpts struct {
	rows, cols int
	spacing    float64
	segments   int
	seed       int64
	power      int
	radioMod   func(*radio.Params)
	cfgMod     func(id packet.NodeID, c *Config)
}

func buildNet(t *testing.T, o netOpts) *testnet {
	t.Helper()
	if o.power == 0 {
		o.power = radio.PowerSim
	}
	if o.spacing == 0 {
		o.spacing = 10
	}
	if o.segments == 0 {
		o.segments = 1
	}
	img, err := image.Random(1, o.segments, o.seed+100)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := topology.Grid(o.rows, o.cols, o.spacing)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.New(o.seed)
	rp := radio.DefaultParams()
	if o.radioMod != nil {
		o.radioMod(&rp)
	}
	medium, err := radio.NewMedium(kernel, layout, rp, o.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	rangeFt, err := medium.RangeFor(o.power)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := invariant.New(invariant.Config{
		Now:     kernel.Now,
		Senders: metrics.NewSenderWindows(layout, rangeFt),
	})
	if err != nil {
		t.Fatal(err)
	}
	medium.SetTap(chk.PacketSent)
	tn := &testnet{kernel: kernel, medium: medium, img: img, checker: chk}
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		var cfg Config
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		if o.cfgMod != nil {
			o.cfgMod(id, &cfg)
		}
		m := New(cfg)
		tn.protos = append(tn.protos, m)
		return m, node.Config{TxPower: o.power}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, chk })
	if err != nil {
		t.Fatal(err)
	}
	tn.network = nw
	nw.Start()
	return tn
}

// verifyAll checks the paper's reliability requirements on every live
// node: accuracy (byte-identical image) and the EEPROM write-once
// invariant.
func (tn *testnet) verifyAll(t *testing.T) {
	t.Helper()
	for _, n := range tn.network.Nodes {
		if n.Dead() {
			continue
		}
		if !n.Completed() {
			t.Fatalf("node %v did not complete", n.ID())
		}
		data, err := tn.img.Reassemble(tn.img.Geometry(), func(seg, pkt int) []byte {
			return n.EEPROM().Read(seg, pkt)
		})
		if err != nil {
			t.Fatalf("node %v: reassemble: %v", n.ID(), err)
		}
		if !tn.img.Verify(data) {
			t.Fatalf("node %v: image mismatch", n.ID())
		}
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			t.Fatalf("node %v: EEPROM write-once violated (max %d)", n.ID(), w)
		}
	}
	tn.checker.Check(t)
}

func TestTwoNodeDissemination(t *testing.T) {
	tn := buildNet(t, netOpts{rows: 1, cols: 2, segments: 1, seed: 1})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 30*time.Minute) {
		t.Fatalf("dissemination incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestLineMultihopDissemination(t *testing.T) {
	// 1×6 line at 20 ft spacing, 27 ft range: strictly multihop.
	tn := buildNet(t, netOpts{rows: 1, cols: 6, spacing: 20, segments: 1, seed: 2})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 60*time.Minute) {
		t.Fatalf("dissemination incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestGridDisseminationPipelined(t *testing.T) {
	tn := buildNet(t, netOpts{rows: 5, cols: 5, segments: 3, seed: 3})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 2*time.Hour) {
		t.Fatalf("dissemination incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestSegmentsArriveInOrder(t *testing.T) {
	tn := buildNet(t, netOpts{rows: 1, cols: 4, spacing: 20, segments: 3, seed: 4})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 2*time.Hour) {
		t.Fatal("dissemination incomplete")
	}
	// Pipelining invariant: every node's RvdSeg reached the total, and
	// the protocol only ever advances rvdSeg by one, so order followed.
	for _, p := range tn.protos {
		if p.RvdSeg() != tn.img.Segments() {
			t.Fatalf("rvdSeg = %d", p.RvdSeg())
		}
	}
	tn.verifyAll(t)
}

func TestDisseminationUnderHeavyLoss(t *testing.T) {
	tn := buildNet(t, netOpts{
		rows: 2, cols: 3, segments: 1, seed: 5,
		radioMod: func(p *radio.Params) {
			p.BERFloor = 8e-4 // ~9% frame loss even at zero distance
			p.BERCeil = 3e-2
		},
	})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 4*time.Hour) {
		t.Fatalf("lossy dissemination incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestSenderDeathRecovery(t *testing.T) {
	// Kill the base station after the first row of nodes has the
	// program; coverage of the rest must still complete via survivors.
	tn := buildNet(t, netOpts{rows: 1, cols: 4, spacing: 20, segments: 1, seed: 6})
	killed := false
	tn.kernel.RunUntil(func() bool {
		if !killed && tn.network.Node(1).Completed() {
			killed = true
			tn.network.Kill(0)
		}
		return tn.network.AllCompleted()
	}, 2*time.Hour)
	if !tn.network.AllCompleted() {
		t.Fatalf("recovery incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

func TestMidStreamParentDeathTriggersFailAndRetry(t *testing.T) {
	// Kill the base mid-transfer: receivers must hit the download
	// watchdog, fail, and re-acquire from nothing — with only two nodes
	// the network is then partitioned, so the receiver simply must not
	// wedge or falsely complete.
	tn := buildNet(t, netOpts{rows: 1, cols: 3, spacing: 5, segments: 1, seed: 7})
	sawDownload := false
	tn.kernel.RunUntil(func() bool {
		if !sawDownload {
			for _, p := range tn.protos[1:] {
				if p.State() == StateDownload {
					sawDownload = true
					tn.network.Kill(0)
					break
				}
			}
		}
		return tn.network.AllCompleted()
	}, 30*time.Minute)
	if !sawDownload {
		t.Skip("transfer never observed mid-stream")
	}
	// Nodes 1 and 2 hold partial data; with the only source dead they
	// must be idle/failed (not stuck in download forever), unless one
	// completed before the kill and then re-served the other.
	tn.kernel.Run(30 * time.Minute)
	for _, p := range tn.protos[1:] {
		if p.State() == StateDownload || p.State() == StateUpdate {
			t.Fatalf("receiver wedged in %v after parent death", p.State())
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		tn := buildNet(t, netOpts{rows: 3, cols: 3, segments: 1, seed: 9})
		if !tn.kernel.RunUntil(tn.network.AllCompleted, time.Hour) {
			t.Fatal("incomplete")
		}
		return tn.network.CompletionTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different completion times: %v vs %v", a, b)
	}
}

func TestAtMostOneSenderPerNeighborhood(t *testing.T) {
	// The paper's headline property: "the sender selection algorithm
	// ensured that two nearby sensors never transmitted simultaneously."
	// We count data-transmission overlap among mutually-audible senders.
	o := netOpts{rows: 4, cols: 4, segments: 2, seed: 10}
	img, err := image.Random(1, o.segments, o.seed+100)
	if err != nil {
		t.Fatal(err)
	}
	layout, _ := topology.Grid(o.rows, o.cols, 10)
	kernel := sim.New(o.seed)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), o.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	rangeFt, err := medium.RangeFor(radio.PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := metrics.NewCollector(metrics.Config{
		Layout: layout, Airtime: medium.Airtime, NeighborhoodRange: rangeFt,
	}, kernel.Now)
	if err != nil {
		t.Fatal(err)
	}
	medium.SetSink(sink)
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		var cfg Config
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		return New(cfg), node.Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	if !kernel.RunUntil(nw.AllCompleted, 4*time.Hour) {
		t.Fatalf("incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
	// Time-varying links make perfection impossible (the paper says the
	// same); require the overlap count to be a tiny fraction of data
	// transmissions.
	if v := sink.ConcurrencyViolations(); v > 25 {
		t.Fatalf("concurrent same-neighborhood data senders: %d overlaps", v)
	}
}

func TestRebootSignalFloodsNetwork(t *testing.T) {
	tn := buildNet(t, netOpts{rows: 2, cols: 3, segments: 1, seed: 12})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, time.Hour) {
		t.Fatal("incomplete")
	}
	tn.protos[0].Reboot()
	tn.kernel.Run(tn.kernel.Now() + 10*time.Second)
	rebooted := 0
	for _, p := range tn.protos {
		if p.Rebooted() {
			rebooted++
		}
	}
	if rebooted != len(tn.protos) {
		t.Fatalf("rebooted %d/%d nodes", rebooted, len(tn.protos))
	}
}

func TestNoPipeliningStillCompletes(t *testing.T) {
	tn := buildNet(t, netOpts{
		rows: 1, cols: 4, spacing: 20, segments: 2, seed: 13,
		cfgMod: func(_ packet.NodeID, c *Config) { c.NoPipelining = true },
	})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 4*time.Hour) {
		t.Fatalf("basic-mode dissemination incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

// jammer blasts junk control frames at a fixed cadence, modelling
// external interference sharing the channel.
type jammer struct {
	rt       node.Runtime
	interval time.Duration
}

func (j *jammer) Init(rt node.Runtime) error {
	j.rt = rt
	rt.RadioOn()
	rt.SetTimer(1, j.interval)
	return nil
}

func (j *jammer) OnPacket(packet.Packet, packet.NodeID) {}

func (j *jammer) OnTimer(node.TimerID) {
	_ = j.rt.Send(&packet.Query{Src: j.rt.ID(), ProgramID: 77, SegID: 1})
	j.rt.SetTimer(1, j.interval)
}

func TestDisseminationSurvivesJammer(t *testing.T) {
	// One node in the middle of a 3x3 grid is a jammer transmitting
	// junk every 120 ms (≈12% channel occupancy in its neighborhood).
	// Dissemination must still cover every real node.
	img, err := image.Random(1, 1, 71)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := topology.Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.New(72)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), 73)
	if err != nil {
		t.Fatal(err)
	}
	const jammerID = packet.NodeID(4) // the center node
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		if id == jammerID {
			return &jammer{interval: 120 * time.Millisecond}, node.Config{TxPower: radio.PowerSim}
		}
		var cfg Config
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		return New(cfg), node.Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	covered := func() bool {
		for _, n := range nw.Nodes {
			if n.ID() != jammerID && !n.Completed() {
				return false
			}
		}
		return true
	}
	if !kernel.RunUntil(covered, 6*time.Hour) {
		done := 0
		for _, n := range nw.Nodes {
			if n.Completed() {
				done++
			}
		}
		t.Fatalf("jammed dissemination incomplete: %d/8 real nodes", done)
	}
	for _, n := range nw.Nodes {
		if n.ID() == jammerID {
			continue
		}
		data, err := img.Reassemble(img.Geometry(), func(seg, pkt int) []byte { return n.EEPROM().Read(seg, pkt) })
		if err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		if !img.Verify(data) {
			t.Fatalf("node %v image mismatch under jamming", n.ID())
		}
	}
}

func TestOverTheAirVersionUpgrade(t *testing.T) {
	// Round 1: program 1 reaches everyone. Round 2: the operator loads
	// program 2 at the base over serial; the network upgrades itself
	// over the air.
	tn := buildNet(t, netOpts{rows: 3, cols: 3, segments: 1, seed: 41})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, time.Hour) {
		t.Fatal("initial dissemination incomplete")
	}
	img2, err := image.Random(2, 2, 141)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.protos[0].LoadProgram(img2); err != nil {
		t.Fatal(err)
	}
	upgraded := func() bool {
		for _, p := range tn.protos {
			if p.RvdSeg() != img2.Segments() {
				return false
			}
		}
		return true
	}
	if !tn.kernel.RunUntil(upgraded, 6*time.Hour) {
		done := 0
		for _, p := range tn.protos {
			if p.RvdSeg() == img2.Segments() {
				done++
			}
		}
		t.Fatalf("upgrade incomplete: %d/%d nodes on v2", done, len(tn.protos))
	}
	for _, n := range tn.network.Nodes {
		data, err := img2.Reassemble(img2.Geometry(), func(seg, pkt int) []byte {
			return n.EEPROM().Read(seg, pkt)
		})
		if err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		if !img2.Verify(data) {
			t.Fatalf("node %v holds a wrong v2 image", n.ID())
		}
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			t.Fatalf("node %v: write-once violated after upgrade (max %d)", n.ID(), w)
		}
	}
}

func TestRandomTopologyDissemination(t *testing.T) {
	// The paper makes no assumption about topology beyond connectivity;
	// a random connected placement must reach full coverage too.
	img, err := image.Random(1, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := topology.ConnectedRandom(16, 60, 60, 27, 31, 25)
	if err != nil {
		t.Fatal(err)
	}
	kernel := sim.New(32)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), 33)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		var cfg Config
		if id == 0 {
			cfg.Base = true
			cfg.Image = img
		}
		return New(cfg), node.Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	if !kernel.RunUntil(nw.AllCompleted, 6*time.Hour) {
		t.Fatalf("random topology incomplete: %d/%d", nw.CompletedCount(), len(nw.Nodes))
	}
	for _, n := range nw.Nodes {
		data, err := img.Reassemble(img.Geometry(), func(seg, pkt int) []byte { return n.EEPROM().Read(seg, pkt) })
		if err != nil {
			t.Fatalf("node %v: %v", n.ID(), err)
		}
		if !img.Verify(data) {
			t.Fatalf("node %v image mismatch", n.ID())
		}
	}
}

func TestQueryUpdateDisabledStillCompletes(t *testing.T) {
	tn := buildNet(t, netOpts{
		rows: 2, cols: 3, segments: 1, seed: 14,
		cfgMod: func(_ packet.NodeID, c *Config) { c.NoQueryUpdate = true },
	})
	if !tn.kernel.RunUntil(tn.network.AllCompleted, 2*time.Hour) {
		t.Fatalf("no-repair dissemination incomplete: %d/%d", tn.network.CompletedCount(), len(tn.network.Nodes))
	}
	tn.verifyAll(t)
}

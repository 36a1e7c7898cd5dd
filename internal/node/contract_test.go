package node_test

import (
	"testing"
	"time"

	"mnp/internal/node"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// moteContract puts node 0 of a two-mote line under the runtime
// contract, running wrap(p) beside an idle mote: what goes on the air
// is read from a tap on the medium.
func moteContract(wrap func(p node.Protocol) node.Protocol) nodetest.Contract {
	return nodetest.Contract{New: func(t *testing.T, p node.Protocol) nodetest.Subject {
		k := sim.New(1)
		l, err := topology.Line(2, 10)
		if err != nil {
			t.Fatal(err)
		}
		params := radio.DefaultParams()
		params.BERFloor, params.BERCeil, params.AsymSigma = 1e-12, 1e-11, 0
		m, err := radio.NewMedium(k, l, params, 1)
		if err != nil {
			t.Fatal(err)
		}
		var aired [][]byte
		m.SetTap(func(_ packet.NodeID, p packet.Packet, _ time.Duration) {
			aired = append(aired, packet.Encode(p))
		})
		// next is what node 0 runs when the network builds or restarts it.
		next := p
		nw, err := node.NewNetwork(l, func(id packet.NodeID) (node.Protocol, node.Config) {
			if id == 0 {
				return wrap(next), node.Config{TxPower: radio.PowerSim}
			}
			return idle{}, node.Config{TxPower: radio.PowerSim}
		}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return k, m, nil })
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		n := nw.Node(0)
		return nodetest.Subject{
			Crash: func() func(node.Protocol) {
				nw.Crash(0)
				return func(p node.Protocol) {
					next = p
					nw.Restart(0)
					if n.Down() || n.Dead() {
						t.Fatal("node 0 did not come back up")
					}
				}
			},
			Aired: func() [][]byte {
				k.RunUntil(func() bool { return n.QueueLen() == 0 }, k.Now()+time.Hour)
				f := aired
				aired = nil
				return f
			},
			Advance: func(d time.Duration) {
				until := k.Now() + d
				k.Run(until)
				k.AdvanceTo(until)
			},
			Refusals: []nodetest.Refusal{
				{Name: "dead", Apply: func() { nw.Kill(0) }},
				{Name: "down", Apply: func() { nw.Crash(0) }},
				{Name: "queue-full", Apply: func() {
					for !n.QueueFull() {
						if err := n.Send(&packet.Query{Src: 0, ProgramID: 1, SegID: 1}); err != nil {
							t.Fatal(err)
						}
					}
				}},
			},
		}
	}}
}

func TestRuntimeContract(t *testing.T) {
	nodetest.RunContract(t, moteContract(func(p node.Protocol) node.Protocol { return p }))
}

// idle is a subprotocol that does nothing, not even turn the radio on.
type idle struct{}

func (idle) Init(node.Runtime) error               { return nil }
func (idle) OnPacket(packet.Packet, packet.NodeID) {}
func (idle) OnTimer(node.TimerID)                  {}

// TestDemuxRuntimeContract puts a demux subprotocol's runtime under the
// same contract: it forwards to the mote's, with timers and segments
// namespaced.
func TestDemuxRuntimeContract(t *testing.T) {
	nodetest.RunContract(t, moteContract(func(p node.Protocol) node.Protocol {
		d, err := node.NewDemux(node.ProgramClassifier(1, 2), idle{}, p)
		if err != nil {
			panic(err)
		}
		return d
	}))
}

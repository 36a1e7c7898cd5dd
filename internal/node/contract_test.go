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
// contract, running wrap(p): what goes on the air is read from a tap
// on the medium.
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
		n, err := node.New(0, k, m, wrap(p), node.Config{TxPower: radio.PowerSim}, nil)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		return nodetest.Subject{
			Crash: func() func(node.Protocol) {
				n.Crash()
				return func(p node.Protocol) {
					if err := n.Restart(wrap(p)); err != nil {
						t.Fatal(err)
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
				{Name: "dead", Apply: n.Crash},
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

func (idle) Init(node.Runtime)                     {}
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

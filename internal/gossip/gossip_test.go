package gossip_test

import (
	"testing"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/gossip"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

// maxDegree returns the largest number of motes within rangeFt of any
// one mote at the layout's current positions.
func maxDegree(l *topology.Layout, rangeFt float64) int {
	worst := 0
	for _, neighbours := range l.NeighborsWithin(rangeFt) {
		worst = max(worst, len(neighbours))
	}
	return worst
}

// A roaming mote eventually hears most of the fleet, but its density
// table must only ever hold the neighbourhood it is in: sampled every
// simulated second of a random-waypoint run, no mote's table exceeds
// twice the largest radio degree the walk produced. (Entries live one
// horizon, 5 s, during which a peer can walk out of range, so the table
// may briefly exceed the instantaneous degree; in this run it peaks at
// 23 against a degree of 24. A cache pruned only when its owner pushes
// data reaches 93 of the 99 peers.)
func TestPeerTableStaysNeighbourhoodSized(t *testing.T) {
	res, err := experiment.Build(experiment.Setup{
		Name: "gossip-roam", Rows: 10, Cols: 10, Spacing: 20, ImagePackets: 256, Seed: 42,
		Protocol:   experiment.ProtocolGossip,
		Invariants: true,
		Mobility: func(l *topology.Layout, seed int64) (topology.Mobility, error) {
			return topology.NewWaypoint(l, topology.WaypointConfig{
				SpeedMin: 1, SpeedMax: 3, Pause: 10 * time.Second, Seed: seed,
			})
		},
		MobilityEvery: 5 * time.Second,
		Limit:         6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	rangeFt, err := res.Medium.Geometry().RangeFor(radio.PowerSim)
	if err != nil {
		t.Fatal(err)
	}
	peakTable, peakDegree := 0, 0
	var sample func()
	sample = func() {
		for _, n := range res.Network.Nodes {
			peakTable = max(peakTable, n.Protocol().(*gossip.Gossip).PeerTableLen())
		}
		peakDegree = max(peakDegree, maxDegree(res.Layout, rangeFt))
		res.Kernel.MustSchedule(time.Second, sample)
	}
	res.Kernel.MustSchedule(time.Second, sample)
	if err := res.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	if peakTable == 0 || peakDegree == 0 {
		t.Fatalf("nothing sampled: peak table %d, peak degree %d", peakTable, peakDegree)
	}
	if peakTable > 2*peakDegree {
		t.Fatalf("a mote's density table reached %d entries; the largest radio degree was %d", peakTable, peakDegree)
	}
}

// A beacon whose geometry no image has — a last segment that is empty
// or longer than a segment — is not learned from: learning it would
// carve flash for packets no frame can address. The same beacon with a
// consistent packet count is.
func TestBeaconGeometryMustBeAnImages(t *testing.T) {
	for _, tc := range []struct {
		total uint16
		learn bool
	}{{65535, false}, {8, false}, {12, true}, {9, true}} {
		rt := nodetest.New(1)
		rt.Attach(gossip.New(gossip.Config{}))
		rt.Deliver(&packet.GossipAdv{Src: 0, ProgramID: 1, Segments: 3, SegPackets: 4,
			TotalPackets: tc.total, PayloadLen: 8, Tail: 8, CompleteSegs: 3}, 0)
		if learned := len(rt.PendingTimers()) > 0; learned != tc.learn {
			t.Errorf("3 segments of 4 packets, %d in all: learned %v, want %v", tc.total, learned, tc.learn)
		}
	}
}

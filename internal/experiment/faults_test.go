package experiment

import (
	"testing"
	"time"

	"mnp/internal/faults"
	"mnp/internal/packet"
)

// TestRandomNodeDeathsDuringDissemination kills a series of random
// non-base nodes while the wave is in flight, using a declarative
// fault plan (victims are drawn from the plan's seeded RNG, so the
// same seed always kills the same nodes). The dense 8x8 grid stays
// connected, so the paper's coverage requirement applies to the
// survivors — all of them must still complete with byte-identical
// images, and no protocol invariant may break along the way.
func TestRandomNodeDeathsDuringDissemination(t *testing.T) {
	res, err := Run(Setup{
		Name: "faults2", Rows: 8, Cols: 8, ImagePackets: 128, Seed: 22,
		Limit: 6 * time.Hour,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.RandomCrashes(6, 20*time.Second, 145*time.Second),
		}},
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	for _, n := range res.Network.Nodes {
		if n.Dead() {
			killed++
		}
	}
	if killed != 6 {
		t.Fatalf("killed %d nodes, want 6", killed)
	}
	if !res.Completed {
		t.Fatalf("survivors incomplete: %d/%d live",
			res.Network.CompletedCount(), res.Layout.N()-killed)
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBaseStationDiesAfterSeeding kills the base once a third of the
// network has the code; the remaining sources must finish coverage.
func TestBaseStationDiesAfterSeeding(t *testing.T) {
	res, err := Build(Setup{
		Name: "base-death", Rows: 5, Cols: 5, ImagePackets: 128, Seed: 23,
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Network.Start()
	baseKilled := false
	done := res.Kernel.RunUntil(func() bool {
		if !baseKilled && res.Network.CompletedCount() >= res.Layout.N()/3 {
			baseKilled = true
			res.Network.Node(0).Kill()
		}
		return res.Network.AllCompleted()
	}, 6*time.Hour)
	if !baseKilled {
		t.Fatal("base was never killed")
	}
	if !done {
		t.Fatalf("coverage incomplete after base death: %d/%d",
			res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKilledMidTransferSenderRecovers kills whichever node first
// becomes a non-base sender, mid-stream; its children must fail over
// to other sources.
func TestKilledMidTransferSenderRecovers(t *testing.T) {
	res, err := Build(Setup{
		Name: "sender-death", Rows: 4, Cols: 4, Spacing: 15, ImagePackets: 256, Seed: 24,
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Network.Start()
	var victim packet.NodeID
	victimKilled := false
	done := res.Kernel.RunUntil(func() bool {
		if !victimKilled {
			for _, ev := range res.Collector.SenderEvents() {
				if ev.Node != 0 {
					victim = ev.Node
					victimKilled = true
					// Let it stream briefly, then kill it mid-transfer.
					res.Kernel.MustSchedule(500*time.Millisecond, func() {
						res.Network.Node(victim).Kill()
					})
					break
				}
			}
		}
		return res.Network.AllCompleted()
	}, 6*time.Hour)
	if !victimKilled {
		t.Skip("no non-base sender emerged")
	}
	if !done {
		t.Fatalf("network did not recover from sender %v's death: %d/%d",
			victim, res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

package experiment

import (
	"testing"
	"time"

	"mnp/internal/packet"
)

// Clean-channel gossip dissemination on a small static grid: every
// node must converge to a byte-identical image under the full checker.
func TestGossipCompletesAndVerifies(t *testing.T) {
	res, err := Run(Setup{
		Name: "gossip-clean", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Protocol: ProtocolGossip, Invariants: true, Limit: 6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Two runs of the same seeded setup are identical in completion time
// and traffic: gossip draws only from the seeded runtime RNG.
func TestGossipDeterministic(t *testing.T) {
	run := func() (time.Duration, int) {
		res, err := Run(Setup{
			Name: "gossip-det", Rows: 3, Cols: 3, ImagePackets: 64, Seed: 7,
			Protocol: ProtocolGossip, Limit: 6 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		tx := 0
		for id := 0; id < res.Layout.N(); id++ {
			tx += res.Collector.TxCount(packet.NodeID(id))
		}
		return res.CompletionTime, tx
	}
	t1, tx1 := run()
	t2, tx2 := run()
	if t1 != t2 || tx1 != tx2 {
		t.Fatalf("non-deterministic: (%v, %d tx) vs (%v, %d tx)", t1, tx1, t2, tx2)
	}
}

package experiment

import (
	"testing"
	"time"

	"mnp/internal/faults"
	"mnp/internal/packet"
)

// TestRLNCCompletesAndVerifies: clean-channel dissemination on a small
// grid, with the online checker armed. Byte-identical images are
// checked twice — by the segment-image-integrity invariant as each
// EventGotSegment fires, and by VerifyImages at the end.
func TestRLNCCompletesAndVerifies(t *testing.T) {
	res, err := Run(Setup{
		Name: "rlnc-clean", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Protocol: ProtocolRLNC, Invariants: true, Limit: 6 * time.Hour,
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
	// Decoding is not free: the energy model must have charged row
	// operations on every non-base node.
	until := res.CompletionTime
	for id := 1; id < res.Layout.N(); id++ {
		l := res.Collector.Ledger(packet.NodeID(id), until)
		if l.DecodeRowOps == 0 || l.DecodeCharge() <= 0 {
			t.Fatalf("node %d decoded a program with zero charged row ops", id)
		}
	}
	if l := res.Collector.Ledger(0, until); l.DecodeRowOps != 0 {
		t.Fatalf("base charged %d decode ops; it never decodes", l.DecodeRowOps)
	}
}

// TestRLNCChaos drives the full gauntlet at once: a mid-transfer power
// blip (RAM lost, EEPROM kept), flaky flash on every non-base node,
// and 30% uniform loss on every link via the wildcard degrade — the
// regime rateless coding exists for. Survivors must converge to
// byte-identical images without ever rewriting an EEPROM slot.
func TestRLNCChaos(t *testing.T) {
	const victim = packet.NodeID(10)
	res, err := Run(Setup{
		Name: "rlnc-chaos", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Protocol: ProtocolRLNC, Invariants: true, Limit: 6 * time.Hour,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.CrashReboot(victim, 40*time.Second, 10*time.Second),
			faults.EEPROMErrors(faults.Wildcard, 0.05, 0, 0),
			faults.DegradeLink(faults.Wildcard, faults.Wildcard, false, 0, 6*time.Hour, 0.3),
		}},
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
	n := res.Network.Node(victim)
	if n.Dead() || !n.Completed() {
		t.Fatalf("rebooted node dead=%v completed=%v", n.Dead(), n.Completed())
	}
	if w := n.EEPROM().MaxWriteCount(); w != 1 {
		t.Fatalf("rebooted node max EEPROM writes = %d, want 1 (write-once)", w)
	}
}

// TestRLNCDeterministic: two runs of the same setup are identical in
// completion time and traffic — the protocol draws only from the
// seeded runtime RNG and the seed-keyed coefficient streams.
func TestRLNCDeterministic(t *testing.T) {
	run := func() (time.Duration, int) {
		res, err := Run(Setup{
			Name: "rlnc-det", Rows: 3, Cols: 3, ImagePackets: 64, Seed: 7,
			Protocol: ProtocolRLNC, Limit: 6 * time.Hour,
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

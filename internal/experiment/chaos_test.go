package experiment

import (
	"testing"
	"time"

	"mnp/internal/faults"
	"mnp/internal/packet"
)

// The chaos suite runs dissemination under declarative fault plans with
// the protocol-invariant checker attached. Every scenario demands the
// paper's reliability requirement from the survivors — byte-identical
// images — and that no invariant (write-once EEPROM, in-order
// segments, advertisement soundness, sleep discipline, sender
// exclusivity) broke along the way.

// runChaos executes a faulted setup and applies the common acceptance
// checks: survivors complete, images verify, invariants held.
func runChaos(t *testing.T, s Setup) *Result {
	t.Helper()
	s.Invariants = true
	if s.Limit == 0 {
		s.Limit = 6 * time.Hour
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%s: survivors incomplete: %d/%d", s.Name,
			res.Network.CompletedCount(), res.Layout.N())
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return res
}

// TestCheckerHoldsForEveryProtocol runs each registered protocol on a
// clean 4×4 grid under the full invariant checker: no rule may break.
// Single-hop XNP reaches the 8 motes in the base's range; every other
// protocol covers all 16.
func TestCheckerHoldsForEveryProtocol(t *testing.T) {
	reach := map[string]int{"xnp": 8}
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(Setup{
				Name: "checker-" + name, Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
				Protocol: ProtocolKind(name), Invariants: true, Limit: 6 * time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
			want := 16
			if r, ok := reach[name]; ok {
				want = r
			}
			if got := res.Network.CompletedCount(); got != want {
				t.Fatalf("%d/16 motes completed, want %d", got, want)
			}
		})
	}
}

// TestChaosCrashDuringForward kills an interior node — positioned to be
// a forwarder between the base's corner and the far side — while the
// wave is mid-flight. The grid stays connected; everyone else must
// still converge.
func TestChaosCrashDuringForward(t *testing.T) {
	res := runChaos(t, Setup{
		Name: "chaos-crash-forward", Rows: 5, Cols: 5, ImagePackets: 128, Seed: 42,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Crash(6, 40*time.Second),
			faults.Crash(12, 70*time.Second),
		}},
	})
	dead := 0
	for _, n := range res.Network.Nodes {
		if n.Dead() {
			dead++
		}
	}
	if dead != 2 {
		t.Fatalf("dead = %d, want the 2 crashed forwarders", dead)
	}
}

// TestChaosRebootMidSegment power-cycles a node while it is receiving:
// RAM state (protocol position, timers) is lost, EEPROM survives. The
// node must recover from its flash contents and finish without ever
// rewriting a slot — the exact property MNP's reboot path promises.
func TestChaosRebootMidSegment(t *testing.T) {
	const victim = packet.NodeID(15)
	res, err := Build(Setup{
		Name: "chaos-reboot", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.CrashReboot(victim, 30*time.Second, 10*time.Second),
		}},
		Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Probe the victim's flash an instant before the power blip to
	// prove the reboot lands mid-segment, not after completion.
	slotsAtCrash := -1
	res.Kernel.MustSchedule(30*time.Second-time.Millisecond, func() {
		slotsAtCrash = res.Network.Node(victim).EEPROM().Slots()
	})
	res.Network.Start()
	if !res.Kernel.RunUntil(res.Network.AllCompleted, 6*time.Hour) {
		t.Fatalf("incomplete: %d/%d", res.Network.CompletedCount(), res.Layout.N())
	}
	if slotsAtCrash <= 0 || slotsAtCrash >= res.Setup.ImagePackets {
		t.Fatalf("victim held %d/%d packets at crash time; reboot was not mid-segment",
			slotsAtCrash, res.Setup.ImagePackets)
	}
	n := res.Network.Node(victim)
	if n.Dead() || !n.Completed() {
		t.Fatalf("rebooted node dead=%v completed=%v", n.Dead(), n.Completed())
	}
	if w := n.EEPROM().MaxWriteCount(); w != 1 {
		t.Fatalf("rebooted node max EEPROM writes = %d, want 1", w)
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPartitionThenHeal cuts the far half of the grid off during
// the early wave, then heals the partition; dissemination must resume
// and cover the once-isolated half.
func TestChaosPartitionThenHeal(t *testing.T) {
	cut := []packet.NodeID{8, 9, 10, 11, 12, 13, 14, 15}
	res := runChaos(t, Setup{
		Name: "chaos-partition", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Partition(cut, 30*time.Second, 90*time.Second),
		}},
	})
	if res.CompletionTime <= 90*time.Second {
		t.Fatalf("completed at %v, inside the partition window", res.CompletionTime)
	}
}

// TestChaosFlakyEEPROM makes every non-base flash fail 5% of page
// programs. The protocol's retry path (the missing-packet bitmap plus
// the download watchdog) must absorb the faults without ever
// double-writing a slot.
func TestChaosFlakyEEPROM(t *testing.T) {
	res := runChaos(t, Setup{
		Name: "chaos-eeprom", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.EEPROMErrors(faults.Wildcard, 0.05, 0, 0),
		}},
	})
	injected := 0
	for _, n := range res.Network.Nodes {
		injected += n.EEPROM().FaultCount()
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			t.Fatalf("node %v rewrote EEPROM under write faults (max %d)", n.ID(), w)
		}
	}
	if injected == 0 {
		t.Fatal("no EEPROM faults were injected")
	}
	t.Logf("absorbed %d injected EEPROM write faults", injected)
}

// TestChaosCombined layers a reboot, a degraded link, and windowed
// EEPROM faults in one run — the kitchen-sink scenario.
func TestChaosCombined(t *testing.T) {
	runChaos(t, Setup{
		Name: "chaos-combined", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 7,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.CrashReboot(9, 45*time.Second, 15*time.Second),
			faults.DegradeLink(1, 2, true, 20*time.Second, 120*time.Second, 0.6),
			faults.EEPROMErrors(6, 0.1, 0, 2*time.Minute),
		}},
	})
}

// TestChaosSpecRoundTrip drives the same reboot scenario through the
// CLI spec grammar, confirming the string form is equivalent to the
// programmatic plan.
func TestChaosSpecRoundTrip(t *testing.T) {
	plan, err := faults.ParseSpec("reboot:5@30s+10s")
	if err != nil {
		t.Fatal(err)
	}
	res := runChaos(t, Setup{
		Name: "chaos-spec", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Faults: plan,
	})
	if n := res.Network.Node(5); !n.Completed() {
		t.Fatal("rebooted node incomplete")
	}
}

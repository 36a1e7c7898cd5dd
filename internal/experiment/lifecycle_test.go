package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mnp/internal/faults"
)

// joinReboots renders one reboot of each of motes 1..15, mote i's
// crashing at at(i) and down for down.
func joinReboots(at func(i int) time.Duration, down time.Duration) string {
	var events []string
	for i := 1; i <= 15; i++ {
		events = append(events, fmt.Sprintf("reboot:%d@%v+%v", i, at(i), down))
	}
	return strings.Join(events, "; ")
}

var (
	// fifteenReboots takes every mote but the base down at once.
	fifteenReboots = joinReboots(func(int) time.Duration { return 10 * time.Second }, 10*time.Second)
	// killThenReboots kills one random mote, then reboots each in turn:
	// one of the restarts finds its mote dead.
	killThenReboots = "randkill:1@5s-5s; " + joinReboots(func(i int) time.Duration { return time.Duration(10+2*i) * time.Second }, time.Second)
)

// TestLifecyclePlans: a run ends when every mote that is not dead holds
// the image, so it waits for a down mote that has not completed; a
// restart that finds its mote dead does nothing; a mote down at the end
// is down, not dead, and its flash is checked. MNP on the dense 4×4
// grid, 128 packets, seed 42.
func TestLifecyclePlans(t *testing.T) {
	for _, c := range []struct {
		name, spec            string
		dead, down, completed int
		at                    time.Duration
	}{
		{"restart-after-the-rest-complete", "reboot:15@5s+200s", 0, 0, 16, 3*time.Minute + 35218*time.Millisecond},
		{"fifteen-down-at-once", fifteenReboots, 0, 0, 16, time.Minute + 26903*time.Millisecond},
		{"restart-of-a-dead-mote", killThenReboots, 1, 0, 15, time.Minute + 19704*time.Millisecond},
		{"down-after-completing", "reboot:2@60s+8s", 0, 1, 16, time.Minute + 7606*time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			plan, err := faults.ParseSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			s := denseGrid
			s.Name, s.ImagePackets, s.Seed, s.Faults, s.Invariants = "lifecycle", 128, 42, plan, true
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			dead, down := 0, 0
			for _, n := range res.Network.Nodes {
				if n.Dead() {
					dead++
				}
				if n.Down() {
					down++
				}
			}
			if got := res.CompletionTime.Round(time.Millisecond); !res.Completed || got != c.at {
				t.Errorf("completed %v at %v, want true at %v", res.Completed, got, c.at)
			}
			if done := res.Network.CompletedCount(); dead != c.dead || down != c.down || done != c.completed {
				t.Errorf("%d dead, %d down, %d completed; want %d, %d, %d", dead, down, done, c.dead, c.down, c.completed)
			}
			if c.down > 0 && !res.Network.Node(2).Down() {
				t.Error("n2 is not the mote left down")
			}
			if err := res.VerifyImages(); err != nil {
				t.Error(err)
			}
			if err := res.VerifyInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzFaultPlan feeds arbitrary strings through the fault grammar. A
// plan that parses and validates runs on a 3×3 grid with 32 packets
// under a 30-minute limit, the checker on, one byte picking the
// protocol from ProtocolNames. Every input must end in an error or a
// run, never a panic, and every mote that ends live and complete must
// hold the image byte for byte.
func FuzzFaultPlan(f *testing.F) {
	for i, spec := range []string{
		"reboot:15@5s+200s",
		fifteenReboots,
		killThenReboots,
		"reboot:2@60s+8s",
		"reboot:7@30s+10s; eeprom:*:0.01",
		"crash:3@20s; partition:4-8@10s-40s; degrade:*->*@0s-1m:0.3; randkill:2@5s-50s",
	} {
		f.Add(spec, byte(i))
	}
	names := ProtocolNames()
	f.Fuzz(func(t *testing.T, spec string, pick byte) {
		plan, err := faults.ParseSpec(spec)
		if err != nil {
			return
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned a plan Validate refuses: %v", spec, err)
		}
		res, err := Run(Setup{
			Name: "fuzz-faults", Protocol: ProtocolKind(names[int(pick)%len(names)]),
			Rows: 3, Cols: 3, ImagePackets: 32, Seed: 42, Limit: 30 * time.Minute,
			Faults: plan, Invariants: true,
		})
		if err != nil {
			return
		}
		for _, n := range res.Network.Nodes {
			if !n.Dead() && !n.Down() && n.Completed() {
				if err := res.verifyBytes(n); err != nil {
					t.Error(err)
				}
			}
		}
	})
}

package experiment

import (
	"strings"
	"testing"
	"time"

	"mnp/internal/image"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

func TestAllSpecsRegistered(t *testing.T) {
	specs := AllSpecs()
	want := []string{"T1", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "EDEL", "A1", "A2", "A3", "A4", "A5", "A6"}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if s.ID != want[i] {
			t.Errorf("spec %d = %s, want %s", i, s.ID, want[i])
		}
		if seen[s.ID] {
			t.Errorf("duplicate spec %s", s.ID)
		}
		seen[s.ID] = true
		if s.Title == "" || s.Run == nil {
			t.Errorf("spec %s incomplete", s.ID)
		}
	}
	if _, ok := ByID("f5"); !ok {
		t.Error("ByID not case-insensitive")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent spec")
	}
}

func TestTable1Report(t *testing.T) {
	s, _ := ByID("T1")
	rep, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 0 {
		t.Errorf("T1 has %d series, want none", len(rep.Series))
	}
	for _, want := range []string{"Transmitting a packet", "20.000", "Idle listening", "83.333"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("T1 report missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Setup{Name: "bad", Rows: 0, Cols: 5}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := Run(Setup{Name: "bad-power", Rows: 2, Cols: 2, Power: 9999}); err == nil {
		t.Error("unknown power accepted")
	}
}

func TestRunDefaults(t *testing.T) {
	if s := (Setup{Protocol: "Deluge"}).withDefaults(); s.Protocol != ProtocolDeluge {
		t.Fatalf("withDefaults kept protocol %q, want the registry name %q", s.Protocol, ProtocolDeluge)
	}
	s := Setup{Rows: 1, Cols: 2}.withDefaults()
	if s.Spacing != 10 || s.ImagePackets != image.DefaultSegmentPackets ||
		s.Protocol != ProtocolMNP || s.Power != radio.PowerSim || s.Limit != 12*time.Hour {
		t.Fatalf("defaults wrong: %+v", s)
	}
}

// TestProtocolStrings pins the display names reports print (F8's
// header, the telemetry meta record): each comes from the protocol's
// registration, any capitalization of the name finds it, and an
// unregistered name prints as itself.
func TestProtocolStrings(t *testing.T) {
	for p, want := range map[ProtocolKind]string{
		ProtocolMNP: "MNP", ProtocolDeluge: "Deluge", ProtocolMOAP: "MOAP",
		ProtocolXNP: "XNP", ProtocolRLNC: "RLNC", ProtocolGossip: "Gossip",
		"Deluge": "Deluge", "gcp": "gcp",
	} {
		if got := p.String(); got != want {
			t.Errorf("ProtocolKind(%q).String() = %q, want %q", string(p), got, want)
		}
	}
}

// TestSmallRunCompletesAndVerifies: MNP with an image shorter than one
// segment on a 3×3 grid completes under the checker with identical
// images; the kit's rows all carry a whole segment.
func TestSmallRunCompletesAndVerifies(t *testing.T) {
	conform(t, Setup{Name: "small", Rows: 3, Cols: 3, ImagePackets: 64, Seed: 5}, verdict{}, nil)
}

func TestPowerChangesSenderCount(t *testing.T) {
	// The Figure 5 observation: lowering the power level makes more
	// nodes become senders, each with a smaller follower set.
	run := func(power int) int {
		res, err := Run(Setup{
			Name: "f5-shape", Rows: 3, Cols: 5, Spacing: 15,
			ImagePackets: testbedPackets, Power: power, Seed: 42,
			Limit: 4 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("power %d incomplete", power)
		}
		if v := res.Collector.ConcurrencyViolations(); v > 2 {
			t.Fatalf("power %d: %d concurrent same-neighborhood senders", power, v)
		}
		return len(res.Collector.SenderOrder())
	}
	high := run(radio.PowerIndoorHigh)
	low := run(radio.PowerIndoorLow)
	if low <= high {
		t.Fatalf("senders: low power %d, high power %d — want more senders at low power", low, high)
	}
}

func TestSendersFarFromBasePreferred(t *testing.T) {
	// The Figure 6 observation: nodes away from the base station are
	// more likely to become senders, having more uncovered neighbors.
	res, err := Run(Setup{
		Name: "f6-shape", Rows: 5, Cols: 5, Spacing: 15,
		ImagePackets: testbedPackets, Power: radio.PowerFull, Seed: 7,
		Limit: 4 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	order := res.Collector.SenderOrder()
	far := 0
	for _, id := range order {
		if id == 0 {
			continue
		}
		hop, err := res.Layout.HopDistanceFromCorner(id)
		if err != nil {
			t.Fatal(err)
		}
		if hop >= 2 {
			far++
		}
	}
	if len(order) > 1 && far == 0 {
		t.Fatalf("no far-from-base senders among %v", order)
	}
}

func TestDelugeComparisonShape(t *testing.T) {
	// Small-scale version of EDEL: Deluge's ART equals its completion
	// time; MNP's ART is lower than Deluge's ART.
	type outcome struct {
		completion, art time.Duration
	}
	run := func(p ProtocolKind) outcome {
		res, err := Run(Setup{
			Name: "edel-shape", Rows: 6, Cols: 6,
			ImagePackets: 2 * image.DefaultSegmentPackets,
			Protocol:     p, Seed: 11, Limit: 6 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%v incomplete", p)
		}
		return outcome{
			completion: res.CompletionTime,
			art:        res.Collector.MeanActiveRadioTime(res.CompletionTime),
		}
	}
	mnp := run(ProtocolMNP)
	del := run(ProtocolDeluge)
	if diff := del.completion - del.art; diff < 0 || diff > del.completion/100 {
		t.Fatalf("Deluge ART %v != completion %v", del.art, del.completion)
	}
	if mnp.art >= del.art {
		t.Fatalf("MNP ART %v not below Deluge ART %v", mnp.art, del.art)
	}
}

// TestMOAPRunCompletes: MOAP with an image shorter than one segment on
// a 2×3 grid completes under the checker with identical images.
func TestMOAPRunCompletes(t *testing.T) {
	conform(t, Setup{Name: "moap-small", Rows: 2, Cols: 3, ImagePackets: 64, Protocol: ProtocolMOAP, Seed: 4},
		verdict{}, nil)
}

func TestCustomLayoutOverridesGrid(t *testing.T) {
	layout, err := topology.ConnectedRandom(10, 50, 50, 27, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Setup{
		Name: "custom-layout", Layout: layout, ImagePackets: 64,
		Seed: 9, Limit: 4 * time.Hour, Invariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != layout {
		t.Fatal("layout override ignored")
	}
	if !res.Completed {
		t.Fatalf("random-layout run incomplete: %d/%d", res.Network.CompletedCount(), layout.N())
	}
	if err := res.VerifyImages(); err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBaseIDValidation(t *testing.T) {
	if _, err := Run(Setup{Name: "bad-base", Rows: 2, Cols: 2, BaseID: 99, ImagePackets: 8}); err == nil {
		t.Fatal("out-of-layout base accepted")
	}
}

func TestBatterySetupFlows(t *testing.T) {
	res, err := Run(Setup{
		Name: "battery", Rows: 1, Cols: 2, ImagePackets: 16, Seed: 6,
		Battery: func(id packet.NodeID) float64 {
			if id == 1 {
				return 0.5
			}
			return 1.0
		},
		Limit: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Network.Node(1).Battery(); got != 0.5 {
		t.Fatalf("battery = %v", got)
	}
}

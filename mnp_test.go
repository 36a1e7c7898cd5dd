package mnp

import (
	"strings"
	"testing"
	"time"
)

func TestExperimentsList(t *testing.T) {
	specs := Experiments()
	if len(specs) != 17 {
		t.Fatalf("got %d experiments, want 17", len(specs))
	}
	for _, s := range specs {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Fatalf("incomplete spec %+v", s)
		}
	}
	// A spec's Run returns a Report; RunExperiment hands back its text.
	rep, err := specs[0].Run(1)
	if err != nil {
		t.Fatal(err)
	}
	text, err := RunExperiment(specs[0].ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text != text || len(rep.Series) != 0 {
		t.Fatalf("%s: Report{%q, %d series}, RunExperiment %q", specs[0].ID, rep.Text, len(rep.Series), text)
	}
}

func TestRunExperimentTable1(t *testing.T) {
	out, err := RunExperiment("T1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("unexpected report: %q", out)
	}
	if _, err := RunExperiment("bogus", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSimulateFacade(t *testing.T) {
	// Every protocol the facade names runs through it, and so does a
	// registered name spelled as a ProtocolKind.
	for _, proto := range []ProtocolKind{ProtocolMNP, ProtocolGossip, ProtocolKind("Deluge")} {
		res, err := Simulate(Setup{
			Name: "facade", Rows: 2, Cols: 2, ImagePackets: 32,
			Protocol: proto, Power: PowerSim, Seed: 1,
			Limit: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%s: facade run incomplete", proto)
		}
		if err := res.VerifyImages(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

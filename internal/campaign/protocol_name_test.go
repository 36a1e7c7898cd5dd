package campaign

import (
	"fmt"
	"strings"
	"testing"

	"mnp/internal/experiment"
	"mnp/internal/scenario"
)

// TestProtocolNameRule holds the three places a protocol is named —
// a Go Setup, a scenario's [protocol] name and a plan's protocols —
// to one rule: lower-cased, not trimmed, one of the table's six names,
// and the same error listing them.
func TestProtocolNameRule(t *testing.T) {
	surfaces := map[string]func(name string) error{
		"setup": func(name string) error {
			_, err := experiment.Build(experiment.Setup{Name: "n", Rows: 2, Cols: 2, ImagePackets: 8, Protocol: experiment.ProtocolKind(name)})
			return err
		},
		"scenario": func(name string) error {
			_, err := scenario.Parse([]byte(fmt.Sprintf("version = 1\nname = \"n\"\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[protocol]\nname = %q\n", name)))
			return err
		},
		"plan": func(name string) error {
			p, err := ParsePlan([]byte(fmt.Sprintf("version = 1\nprotocols = [%q]\n[scenario]\n[scenario.topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n", name)))
			if err == nil && p.Protocols[0] != strings.ToLower(name) {
				err = fmt.Errorf("protocol axis reads %q", p.Protocols[0])
			}
			return err
		},
	}
	for surface, check := range surfaces {
		for _, name := range []string{"mnp", "Deluge", "XNP"} {
			if err := check(name); err != nil {
				t.Errorf("%s %q: %v", surface, name, err)
			}
		}
		for _, name := range []string{"gcp", " mnp", "mnp "} {
			want := fmt.Sprintf("unknown protocol %q (have deluge, gossip, mnp, moap, rlnc, xnp)", name)
			if err := check(name); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %q: error %v, want one containing %s", surface, name, err, want)
			}
		}
	}
}

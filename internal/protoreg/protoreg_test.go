package protoreg_test

import (
	"strings"
	"testing"

	_ "mnp/internal/core"
	_ "mnp/internal/deluge"
	_ "mnp/internal/gossip"
	_ "mnp/internal/moap"
	"mnp/internal/protoreg"
	_ "mnp/internal/rlnc"
	_ "mnp/internal/xnp"
)

func TestAllProtocolsRegistered(t *testing.T) {
	want := []string{"deluge", "gossip", "mnp", "moap", "rlnc", "xnp"}
	got := protoreg.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	display := []string{"Deluge", "Gossip", "MNP", "MOAP", "RLNC", "XNP"}
	for i, name := range want {
		if _, ok := protoreg.Lookup(name); !ok {
			t.Errorf("Lookup(%q) missing", name)
		}
		if got, ok := protoreg.Display(name); !ok || got != display[i] {
			t.Errorf("Display(%q) = %q, %v; want %q", name, got, ok, display[i])
		}
	}
	// Lookup and Display are case-insensitive — CLI flags and scenario
	// files may capitalize.
	if _, ok := protoreg.Lookup("MNP"); !ok {
		t.Error("Lookup is case-sensitive; want insensitive")
	}
	if got, _ := protoreg.Display("Deluge"); got != "Deluge" {
		t.Errorf("Display(Deluge) = %q; want case-insensitive lookup", got)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := protoreg.Lookup("gcp"); ok {
		t.Fatal("Lookup(gcp) succeeded; want miss")
	}
	err := protoreg.ValidateOptions("gcp", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("ValidateOptions(gcp) = %v, want unknown-protocol error", err)
	}
}

// TestAcceptedOptionKeys pins each registered protocol's option
// surface: MNP accepts exactly the knobs the paper's ablations and
// extensions turn, each a boolean, and the baselines accept none.
func TestAcceptedOptionKeys(t *testing.T) {
	accepted := map[string][]string{
		"mnp":    {"battery_aware", "idle_duty_cycle", "no_sender_selection", "no_sleep", "query_update"},
		"deluge": nil,
		"gossip": nil,
		"moap":   nil,
		"rlnc":   nil,
		"xnp":    nil,
	}
	if len(accepted) != len(protoreg.Names()) {
		t.Fatalf("table covers %d protocols, registry has %v", len(accepted), protoreg.Names())
	}
	for _, name := range protoreg.Names() {
		keys, ok := accepted[name]
		if !ok {
			t.Fatalf("protocol %q missing from the table", name)
		}
		for _, key := range keys {
			for _, v := range []string{"true", "false"} {
				if err := protoreg.ValidateOptions(name, map[string]string{key: v}); err != nil {
					t.Errorf("%s %s=%s: %v", name, key, v, err)
				}
			}
			err := protoreg.ValidateOptions(name, map[string]string{key: "maybe"})
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s %s=maybe: error %v, want one naming the key", name, key, err)
			}
		}
		// A key no protocol accepts, and the mnp keys on a baseline.
		probes := []string{"data_interval"}
		if len(keys) == 0 {
			probes = append(probes, accepted["mnp"]...)
		}
		for _, key := range probes {
			err := protoreg.ValidateOptions(name, map[string]string{key: "true"})
			if err == nil || !strings.Contains(err.Error(), "unknown option "+key) {
				t.Errorf("%s %s: error %v, want unknown option", name, key, err)
			}
		}
		if err := protoreg.ValidateOptions(name, nil); err != nil {
			t.Errorf("%s with no options: %v", name, err)
		}
	}
}

func TestValidateOptions(t *testing.T) {
	cases := []struct {
		proto   string
		options map[string]string
		wantErr string
	}{
		{"mnp", nil, ""},
		{"mnp", map[string]string{"no_sleep": "true", "battery_aware": "true"}, ""},
		{"mnp", map[string]string{"no_sleep": "maybe"}, "no_sleep"},
		{"mnp", map[string]string{"nosleep": "true"}, "unknown option nosleep"},
		{"mnp", map[string]string{"advertise_count": "3"}, "unknown option advertise_count"},
		{"deluge", map[string]string{"page_packets": "24"}, "unknown option page_packets"},
		{"moap", map[string]string{"window": "8"}, "unknown option window"},
		{"xnp", map[string]string{"query_interval": "3s"}, "unknown option query_interval"},
	}
	for _, c := range cases {
		err := protoreg.ValidateOptions(c.proto, c.options)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s %v: unexpected error %v", c.proto, c.options, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s %v: error %v, want substring %q", c.proto, c.options, err, c.wantErr)
		}
	}
}

// TestOptsAtomicCommit pins the all-or-nothing contract: an option map
// with any bad or unknown key must leave every destination exactly as
// it was, even when other keys in the same map parsed fine. (The old
// behavior applied values eagerly in map-iteration order, so a failing
// Build could leave a half-mutated Config behind — harmless for
// builders that discard it, a haunting for any that reuse it.)
func TestOptsAtomicCommit(t *testing.T) {
	type config struct{ sleep, repair bool }
	base := config{sleep: true, repair: false}
	decode := func(m map[string]string) (config, error) {
		cfg := base
		o := protoreg.NewOpts(m)
		o.Bool("sleep", &cfg.sleep)
		o.Bool("repair", &cfg.repair)
		return cfg, o.Err()
	}

	good := map[string]string{"sleep": "false", "repair": "true"}
	cfg, err := decode(good)
	if err != nil {
		t.Fatalf("clean map: %v", err)
	}
	if want := (config{false, true}); cfg != want {
		t.Fatalf("clean map: cfg = %+v, want %+v", cfg, want)
	}

	bad := []map[string]string{
		{"sleep": "false", "repair": "yes please"}, // parse error after a good key
		{"repair": "true", "sleep": "maybe"},       // parse error, other key good
		{"sleep": "false", "typo": "1"},            // unknown key, all others good
		{"repair": "true", "x": ""},                // unknown empty-valued key
	}
	for _, m := range bad {
		cfg, err := decode(m)
		if err == nil {
			t.Fatalf("map %v: expected error", m)
		}
		if cfg != base {
			t.Fatalf("map %v: config mutated to %+v despite error %v; want untouched %+v", m, cfg, err, base)
		}
	}
}

// TestMNPBuilderAppliesOptions checks that the registered MNP builder
// builds from an option map and refuses a bad one: options are the
// only way to tune a protocol.
func TestMNPBuilderAppliesOptions(t *testing.T) {
	b, ok := protoreg.Lookup("mnp")
	if !ok {
		t.Fatal("mnp not registered")
	}
	p, err := b(protoreg.Build{
		ID:      7,
		Options: map[string]string{"idle_duty_cycle": "true", "battery_aware": "true"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("builder returned nil protocol")
	}
	if _, err := b(protoreg.Build{ID: 7, Options: map[string]string{"battery_aware": "nine"}}); err == nil {
		t.Fatal("builder accepted a malformed option")
	}
}

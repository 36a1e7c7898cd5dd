package protoreg_test

import (
	"strings"
	"testing"
	"time"

	"mnp/internal/core"
	_ "mnp/internal/deluge"
	_ "mnp/internal/gossip"
	_ "mnp/internal/moap"
	"mnp/internal/packet"
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
	for _, name := range want {
		if _, ok := protoreg.Lookup(name); !ok {
			t.Errorf("Lookup(%q) missing", name)
		}
	}
	// Lookup is case-insensitive — CLI flags and scenario files may
	// capitalize.
	if _, ok := protoreg.Lookup("MNP"); !ok {
		t.Error("Lookup is case-sensitive; want insensitive")
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

func TestValidateOptions(t *testing.T) {
	cases := []struct {
		proto   string
		options map[string]string
		wantErr string
	}{
		{"mnp", nil, ""},
		{"mnp", map[string]string{"no_sleep": "true", "advertise_count": "3"}, ""},
		{"mnp", map[string]string{"no_sleep": "maybe"}, "no_sleep"},
		{"mnp", map[string]string{"nosleep": "true"}, "unknown option nosleep"},
		{"deluge", map[string]string{"page_packets": "24", "trickle_k": "2"}, ""},
		{"deluge", map[string]string{"window": "8"}, "unknown option"},
		{"moap", map[string]string{"window": "8", "max_naks": "2"}, ""},
		{"xnp", map[string]string{"query_interval": "3s"}, ""},
		{"xnp", map[string]string{"query_interval": "fast"}, "query_interval"},
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
	type config struct {
		sleep    bool
		count    int
		rate     float64
		interval time.Duration
	}
	base := config{sleep: true, count: 3, rate: 0.5, interval: time.Second}
	decode := func(m map[string]string) (config, error) {
		cfg := base
		o := protoreg.NewOpts(m)
		o.Bool("sleep", &cfg.sleep)
		o.Int("count", &cfg.count)
		o.Float("rate", &cfg.rate)
		o.Duration("interval", &cfg.interval)
		return cfg, o.Err()
	}

	good := map[string]string{"sleep": "false", "count": "9", "rate": "1.25", "interval": "250ms"}
	cfg, err := decode(good)
	if err != nil {
		t.Fatalf("clean map: %v", err)
	}
	if want := (config{false, 9, 1.25, 250 * time.Millisecond}); cfg != want {
		t.Fatalf("clean map: cfg = %+v, want %+v", cfg, want)
	}

	bad := []map[string]string{
		{"sleep": "false", "count": "nine"},          // parse error after a good key
		{"count": "9", "sleep": "maybe"},             // parse error, other key good
		{"count": "9", "rate": "1.25", "typo": "1"},  // unknown key, all others good
		{"interval": "250ms", "count": "9", "x": ""}, // unknown empty-valued key
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

func TestMNPBuilderAppliesOptionsAndTune(t *testing.T) {
	b, ok := protoreg.Lookup("mnp")
	if !ok {
		t.Fatal("mnp not registered")
	}
	var tuned packet.NodeID
	p, err := b(protoreg.Build{
		ID:      7,
		Options: map[string]string{"data_interval": "45ms"},
		Tune: func(id packet.NodeID, c *core.Config) {
			tuned = id
			c.AdvertiseCount = 9
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("builder returned nil protocol")
	}
	if tuned != 7 {
		t.Fatalf("tune hook saw node %v, want 7", tuned)
	}
	_ = time.Millisecond // options parsing covered by ValidateOptions cases
}

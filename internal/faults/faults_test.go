package faults

import (
	"strings"
	"testing"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

func TestParseSpecGrammar(t *testing.T) {
	plan, err := ParseSpec("crash:5@20s; reboot:7@30s+10s; partition:0-3@60s-120s; " +
		"degrade:5->7@10s-50s:0.8; degrade:1<->2@0s-5s:0.5; eeprom:*:0.01; " +
		"eeprom:9:0.05@20s-80s; randkill:6@20s-145s")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 8 {
		t.Fatalf("parsed %d events, want 8", len(plan.Events))
	}
	want := []Event{
		Crash(5, 20*time.Second),
		CrashReboot(7, 30*time.Second, 10*time.Second),
		Partition([]packet.NodeID{0, 1, 2, 3}, 60*time.Second, 120*time.Second),
		DegradeLink(5, 7, false, 10*time.Second, 50*time.Second, 0.8),
		DegradeLink(1, 2, true, 0, 5*time.Second, 0.5),
		EEPROMErrors(Wildcard, 0.01, 0, 0),
		EEPROMErrors(9, 0.05, 20*time.Second, 80*time.Second),
		RandomCrashes(6, 20*time.Second, 145*time.Second),
	}
	for i, w := range want {
		got := plan.Events[i]
		if got.Kind != w.Kind || got.Node != w.Node || got.At != w.At ||
			got.Until != w.Until || got.Downtime != w.Downtime ||
			got.Src != w.Src || got.Dst != w.Dst ||
			got.Bidirectional != w.Bidirectional ||
			got.Drop != w.Drop || got.Count != w.Count {
			t.Errorf("event %d = %+v, want %+v", i, got, w)
		}
		if w.Kind == KindPartition && len(got.Group) != len(w.Group) {
			t.Errorf("event %d group = %v, want %v", i, got.Group, w.Group)
		}
	}
}

// Wildcard degrade endpoints: grammar, matcher semantics, and log
// rendering.
func TestDegradeWildcard(t *testing.T) {
	plan, err := ParseSpec("degrade:*->*@0s-2h:0.3; degrade:5->*@10s-50s:0.8; degrade:*<->7@10s-50s:0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		DegradeLink(Wildcard, Wildcard, false, 0, 2*time.Hour, 0.3),
		DegradeLink(5, Wildcard, false, 10*time.Second, 50*time.Second, 0.8),
		DegradeLink(Wildcard, 7, true, 10*time.Second, 50*time.Second, 0.4),
	}
	for i, w := range want {
		got := plan.Events[i]
		if got.Src != w.Src || got.Dst != w.Dst || got.Bidirectional != w.Bidirectional || got.Drop != w.Drop {
			t.Errorf("event %d = %+v, want %+v", i, got, w)
		}
	}

	all := degradeMatch(want[0])
	for _, link := range [][2]packet.NodeID{{0, 1}, {9, 3}, {7, 5}} {
		if d := all(link[0], link[1]); d != 0.3 {
			t.Errorf("*->* match(%v, %v) = %v, want 0.3", link[0], link[1], d)
		}
	}
	out := degradeMatch(want[1])
	if d := out(5, 9); d != 0.8 {
		t.Errorf("5->* match(5, 9) = %v, want 0.8", d)
	}
	if d := out(9, 5); d != 0 {
		t.Errorf("5->* match(9, 5) = %v, want 0 (unidirectional)", d)
	}
	into := degradeMatch(want[2])
	if d := into(3, 7); d != 0.4 {
		t.Errorf("*<->7 match(3, 7) = %v, want 0.4", d)
	}
	if d := into(7, 3); d != 0.4 {
		t.Errorf("*<->7 match(7, 3) = %v, want 0.4 (bidirectional)", d)
	}
	if d := into(3, 4); d != 0 {
		t.Errorf("*<->7 match(3, 4) = %v, want 0", d)
	}

	if s := want[0].Describe(); !strings.Contains(s, "degrade *->* 30%") {
		t.Errorf("Describe() = %q, want wildcard rendering", s)
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"",
		"  ;  ",
		"crash:5",                 // no time
		"crash:x@20s",             // bad node
		"reboot:7@30s",            // no downtime
		"partition:0-3@60s",       // no window end
		"partition:3-0@1s-2s",     // inverted range
		"degrade:5->7@10s-50s",    // no drop
		"degrade:5->7@10s-50s:0",  // drop out of range
		"degrade:5->7@10s-50s:2",  // drop out of range
		"degrade:5->7@50s-10s:.5", // inverted window
		"eeprom:*",                // no rate
		"eeprom:*:1.5",            // rate out of range
		"randkill:0@1s-2s",        // zero count
		"randkill:six@1s-2s",      // bad count
		"teleport:5@20s",          // unknown kind
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", spec)
		}
	}
}

func TestValidateCatchesBadEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   Event
	}{
		{"reboot-no-downtime", Event{Kind: KindReboot, Node: 1, At: time.Second}},
		{"partition-empty-group", Event{Kind: KindPartition, At: 0, Until: time.Second}},
		{"partition-empty-window", Partition([]packet.NodeID{1}, time.Second, time.Second)},
		{"degrade-zero-drop", Event{Kind: KindDegrade, Src: 1, Dst: 2, Until: time.Second}},
		{"eeprom-over-one", Event{Kind: KindEEPROM, Node: 1, Drop: 1.5}},
		{"randkill-inverted", Event{Kind: KindRandomCrashes, Count: 1, At: time.Second, Until: 0}},
		{"unknown-kind", Event{Kind: Kind(99)}},
	} {
		plan := &Plan{Events: []Event{tc.ev}}
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.ev)
		}
	}
}

// TestValidateRefusesUnrestartableReboots: a reboot's restart needs its
// mote down and whole, so a second reboot whose down window touches the
// first, or a crash of the mote at or before the restart, is refused;
// a later, disjoint fault on the same mote, or an overlap on another
// mote, is not.
func TestValidateRefusesUnrestartableReboots(t *testing.T) {
	for spec, ok := range map[string]bool{
		"reboot:5@10s+20s; reboot:5@15s+20s": false,
		"reboot:5@15s+20s; reboot:5@10s+20s": false,
		"reboot:5@10s+10s; reboot:5@20s+10s": false, // the second crash lands on the restart
		"crash:5@5s; reboot:5@10s+10s":       false,
		"reboot:5@10s+10s; crash:5@15s":      false, // killed while down
		"reboot:5@10s+10s; crash:5@20s":      false,
		"reboot:5@10s+10s; reboot:5@21s+10s": true,
		"reboot:5@10s+10s; crash:5@21s":      true,
		"reboot:5@10s+20s; reboot:6@15s+20s": true,
		"crash:6@5s; reboot:5@10s+10s":       true,
	} {
		_, err := ParseSpec(spec)
		if (err == nil) != ok {
			t.Errorf("ParseSpec(%q) = %v, want ok %v", spec, err, ok)
		}
		if err != nil && !strings.Contains(err.Error(), "n5") {
			t.Errorf("ParseSpec(%q) = %v, which does not name n5", spec, err)
		}
	}
}

func TestApplyRejectsIncompleteEnv(t *testing.T) {
	plan := &Plan{Events: []Event{Crash(1, time.Second)}}
	if err := plan.Apply(Env{}); err == nil {
		t.Fatal("Apply accepted an empty env")
	}
}

func TestPlanString(t *testing.T) {
	empty := &Plan{}
	if got := empty.String(); got != "faults: none" {
		t.Fatalf("empty plan String = %q", got)
	}
	plan := &Plan{Events: []Event{
		Crash(5, 20*time.Second),
		CrashReboot(7, 30*time.Second, 10*time.Second),
		Partition([]packet.NodeID{0, 1}, time.Minute, 2*time.Minute),
		DegradeLink(1, 2, true, 0, 5*time.Second, 0.5),
		EEPROMErrors(Wildcard, 0.01, 0, 0),
		RandomCrashes(3, 0, time.Minute),
	}}
	s := plan.String()
	for _, want := range []string{
		"crash n5 @20s", "reboot n7 @30s (down 10s)", "partition 2 nodes",
		"degrade n1<->n2 50%", "eeprom-errors * 1.0%", "randkill 3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

// writer is the smallest protocol that exercises the EEPROM: one write
// to a fresh slot every second.
type writer struct {
	rt   node.Runtime
	next int
}

func (w *writer) Init(rt node.Runtime) error {
	w.rt = rt
	rt.SetTimer(1, time.Second)
	return nil
}
func (w *writer) OnPacket(packet.Packet, packet.NodeID) {}
func (w *writer) OnTimer(id node.TimerID) {
	_ = w.rt.Store(1, w.next, 0, []byte{byte(w.next)}) // an open-ended segment
	w.next++
	w.rt.SetTimer(id, time.Second)
}

// twoTileEnv builds a 2×2 deployment cut into two tiles (nodes 0–1 and
// 2–3), each with its own kernel and medium, every node a writer.
func twoTileEnv(t *testing.T) (Env, []*sim.Kernel) {
	t.Helper()
	layout, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := radio.NewGeometry(layout, radio.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tileOf := func(id packet.NodeID) int { return int(id) / 2 }
	kernels := []*sim.Kernel{sim.New(1), sim.New(2)}
	env := Env{At: func(time.Duration, func()) {}, TileOf: tileOf, Seed: 42}
	for i, k := range kernels {
		m, err := radio.NewShardMedium(k, geo, []packet.NodeID{packet.NodeID(2 * i), packet.NodeID(2*i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		env.Mediums = append(env.Mediums, m)
		env.Clocks = append(env.Clocks, k.Now)
	}
	env.Network, err = node.NewNetwork(layout,
		func(packet.NodeID) (node.Protocol, node.Config) { return &writer{}, node.Config{} },
		func(id packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) {
			return kernels[tileOf(id)], env.Mediums[tileOf(id)], nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return env, kernels
}

func TestApplyRejectsTilesWithoutTileMap(t *testing.T) {
	env, _ := twoTileEnv(t)
	plan := &Plan{Events: []Event{EEPROMErrors(Wildcard, 0.5, 0, 0)}}
	if err := plan.Apply(env); err != nil {
		t.Fatalf("complete two-tile env rejected: %v", err)
	}
	env.TileOf = nil
	if err := plan.Apply(env); err == nil {
		t.Fatal("Apply accepted two mediums without a tile map")
	}
}

// TestEEPROMFaultsIgnoreTileOrder is what the per-node draw stream is
// for: across tiles the interleaving of writes is undefined, so the
// faults each node absorbs must not depend on which tile runs first.
func TestEEPROMFaultsIgnoreTileOrder(t *testing.T) {
	counts := func(order []int) []int {
		env, kernels := twoTileEnv(t)
		env.Base = 0
		plan := &Plan{Events: []Event{EEPROMErrors(Wildcard, 0.5, 10*time.Second, 50*time.Second)}}
		if err := plan.Apply(env); err != nil {
			t.Fatal(err)
		}
		env.Network.Start()
		for _, i := range order {
			kernels[i].Run(time.Minute)
		}
		var out []int
		for _, n := range env.Network.Nodes {
			out = append(out, n.EEPROM().FaultCount())
		}
		return out
	}
	a, b := counts([]int{0, 1}), counts([]int{1, 0})
	total := 0
	for id := range a {
		if a[id] != b[id] {
			t.Errorf("node %d absorbed %d faults with tile 0 first, %d with tile 1 first", id, a[id], b[id])
		}
		total += a[id]
	}
	if a[0] != 0 {
		t.Errorf("base absorbed %d faults; wildcard targeting exempts it", a[0])
	}
	if total == 0 {
		t.Fatal("no faults injected; the comparison is vacuous")
	}
}

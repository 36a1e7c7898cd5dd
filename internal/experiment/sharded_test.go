package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mnp/internal/core"
	"mnp/internal/faults"
	"mnp/internal/packet"
)

// TestSetupValidate exercises the deployment validation Build applies
// before constructing anything: malformed grids, shard counts outside
// [1, n], and negative sizes must all fail with descriptive errors.
func TestSetupValidate(t *testing.T) {
	valid := Setup{Name: "v", Rows: 2, Cols: 2, Spacing: 10, Shards: 1}
	cases := []struct {
		name    string
		mutate  func(*Setup)
		wantErr string // substring; empty means valid
	}{
		{"valid", func(s *Setup) {}, ""},
		{"zero-rows", func(s *Setup) { s.Rows = 0 }, "rows and cols"},
		{"negative-cols", func(s *Setup) { s.Cols = -3 }, "rows and cols"},
		{"zero-spacing", func(s *Setup) { s.Spacing = 0 }, "spacing"},
		{"negative-spacing", func(s *Setup) { s.Spacing = -1 }, "spacing"},
		{"nan-spacing", func(s *Setup) { s.Spacing = math.NaN() }, "spacing NaN ft"},
		{"inf-spacing", func(s *Setup) { s.Spacing = math.Inf(1) }, "spacing +Inf ft"},
		{"zero-shards", func(s *Setup) { s.Shards = 0 }, "at least 1"},
		{"negative-shards", func(s *Setup) { s.Shards = -2 }, "at least 1"},
		{"too-many-shards", func(s *Setup) { s.Shards = 5 }, "exceed"},
		{"negative-workers", func(s *Setup) { s.Workers = -3 }, "worker count -3 is negative"},
		{"negative-image", func(s *Setup) { s.ImagePackets = -1 }, "negative"},
		{"huge-image", func(s *Setup) { s.ImagePackets = 1 << 40 }, "exceeds 32640 (255 segments)"},
		{"negative-limit", func(s *Setup) { s.Limit = -time.Second }, "negative"},
		{"unknown-protocol", func(s *Setup) { s.Protocol = "gcp" }, `unknown protocol "gcp"`},
		{"negative-protocol", func(s *Setup) { s.Protocol = " mnp" }, "unknown protocol"}, // names are not trimmed
		{"known-protocol", func(s *Setup) { s.Protocol = ProtocolDeluge }, ""},
		{"capitalized-protocol", func(s *Setup) { s.Protocol = "Deluge" }, ""},
		{"base-outside", func(s *Setup) { s.BaseID = 4 }, "base n4 outside the 4-node layout"},
		{"good-options", func(s *Setup) {
			s.Protocol = ProtocolMNP
			s.Variant = core.Variant{BatteryAware: true, IdleDutyCycle: true}
		}, ""},
		{"default-protocol-variant", func(s *Setup) {
			s.Variant = core.Variant{NoQueryUpdate: true}
		}, ""},
		{"baseline-option", func(s *Setup) {
			s.Protocol = ProtocolXNP
			s.Variant = core.Variant{NoSleep: true}
		}, "XNP takes no MNP variant"},
		{"deluge-variant", func(s *Setup) {
			s.Protocol = ProtocolDeluge
			s.Variant = core.Variant{NoSenderSelection: true}
		}, "Deluge takes no MNP variant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.mutate(&s)
			err := s.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
	// Build surfaces the same errors (after defaults, so zero spacing is
	// filled in, but a bad shard count is not).
	if _, err := Build(Setup{Name: "b", Rows: 2, Cols: 2, Shards: 9}); err == nil {
		t.Fatal("Build accepted 9 shards on a 4-node grid")
	}
	// A finite spacing whose far corner overflows (2 x 1e308 = +Inf)
	// passes Validate; the layout rejects the point instead of the
	// spatial index looping on an infinite bounding box.
	if _, err := Build(Setup{Name: "b", Rows: 1, Cols: 3, Spacing: 1e308}); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("Build with spacing 1e308 = %v, want a not-finite point error", err)
	}
}

// TestShardedEquivalence is the cross-strategy property test: for
// several seeds and topologies, the sharded engine must reach the same
// protocol verdicts as the sequential kernel — every node completes,
// images verify byte-for-byte, no invariant breaks — with aggregate
// traffic and completion time in the same regime. Bitwise equality is
// not expected (per-shard RNG streams and barrier-delayed cross-shard
// carrier sense are documented approximations); verdict equality is.
func TestShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("12 full simulations in -short mode")
	}
	topos := []struct {
		name       string
		rows, cols int
	}{
		{"grid-4x4", 4, 4},
		{"grid-8x8", 8, 8},
	}
	for _, topo := range topos {
		for _, seed := range []int64{42, 7, 99} {
			base := Setup{
				Name: "equiv", Rows: topo.rows, Cols: topo.cols,
				ImagePackets: 64, Seed: seed, Limit: 4 * time.Hour,
				Invariants: true,
			}
			seq := base
			seq.Shards = 1
			sh := base
			sh.Shards, sh.Workers = 4, 1
			rs, err := Run(seq)
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", topo.name, seed, err)
			}
			rp, err := Run(sh)
			if err != nil {
				t.Fatalf("%s seed %d sharded: %v", topo.name, seed, err)
			}
			if rs.Completed != rp.Completed {
				t.Fatalf("%s seed %d: completed %v sequential vs %v sharded",
					topo.name, seed, rs.Completed, rp.Completed)
			}
			if err := rp.VerifyImages(); err != nil {
				t.Fatalf("%s seed %d sharded images: %v", topo.name, seed, err)
			}
			if errS, errP := rs.VerifyInvariants(), rp.VerifyInvariants(); (errS == nil) != (errP == nil) {
				t.Fatalf("%s seed %d: invariant verdicts diverge: sequential %v, sharded %v",
					topo.name, seed, errS, errP)
			}
			ss := rs.Collector.Snapshot(rs.CompletionTime)
			sp := rp.Collector.Snapshot(rp.CompletionTime)
			if ss.Completed != sp.Completed {
				t.Fatalf("%s seed %d: %d nodes completed sequential vs %d sharded",
					topo.name, seed, ss.Completed, sp.Completed)
			}
			// Traffic totals are fat-tailed — a retransmission storm can
			// triple one run's tx without changing the outcome (sequential
			// seeds differ from each other by ~2x on this grid) — so the
			// regime bound is deliberately loose; the sharp checks are the
			// verdicts above and the protocol floors below.
			within := func(metric string, factor, a, b int) {
				if a > factor*b || b > factor*a {
					t.Fatalf("%s seed %d: %s diverged beyond %dx: sequential %d, sharded %d",
						topo.name, seed, metric, factor, a, b)
				}
			}
			within("tx", 4, ss.Tx, sp.Tx)
			within("rx", 4, ss.Rx, sp.Rx)
			within("sender elections", 2, ss.SenderEvents, sp.SenderEvents)
			if a, b := rs.CompletionTime, rp.CompletionTime; a > 2*b || b > 2*a {
				t.Fatalf("%s seed %d: completion diverged beyond 2x: %v vs %v",
					topo.name, seed, a, b)
			}
			// Every non-base node must have heard the whole image over the
			// air in both modes; missing cross-shard deliveries would show
			// up here before anywhere else.
			floor := (rs.Layout.N() - 1) * 64
			if got := sp.RxByClass[packet.ClassData]; got < floor {
				t.Fatalf("%s seed %d: sharded data rx %d below the %d delivery floor",
					topo.name, seed, got, floor)
			}
			t.Logf("%s seed %d: sequential %v tx=%d, sharded %v tx=%d",
				topo.name, seed, rs.CompletionTime, ss.Tx, rp.CompletionTime, sp.Tx)
		}
	}
}

// TestShardedDeterminism pins the sharded engine's reproducibility: the
// same (seed, shards) pair must give identical results run to run, and
// the worker count — inline vs one goroutine per shard — must not leak
// into simulation state.
func TestShardedDeterminism(t *testing.T) {
	run := func(workers int) (time.Duration, interface{}) {
		res, err := Run(Setup{
			Name: "det", Rows: 6, Cols: 6, ImagePackets: 64, Seed: 42,
			Shards: 3, Workers: workers, Limit: 4 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		return res.CompletionTime, res.Collector.Snapshot(res.CompletionTime)
	}
	t1, s1 := run(1)
	t2, s2 := run(1)
	if t1 != t2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("two identical sharded runs diverged: %v vs %v", t1, t2)
	}
	t3, s3 := run(4)
	if t1 != t3 || !reflect.DeepEqual(s1, s3) {
		t.Fatalf("worker count changed the simulation: inline %v, parallel %v", t1, t3)
	}
}

// TestShardedChaosPartitionHeal reruns the partition+heal chaos
// scenario through the sharded engine with the invariant observer
// attached: the radio-level fault window must quantize onto lockstep
// barriers without breaking recovery, and the replayed observation
// stream must satisfy the checker exactly as the sequential one does.
// The cut starts at 10s — before any far-half node holds a complete
// segment in this timeline — so the isolated half cannot finish until
// the heal, and completion after 90s proves the partition actually
// blocked cross-shard ghost frames.
func TestShardedChaosPartitionHeal(t *testing.T) {
	cut := []packet.NodeID{8, 9, 10, 11, 12, 13, 14, 15}
	res := runChaos(t, Setup{
		Name: "chaos-partition-sharded", Rows: 4, Cols: 4, ImagePackets: 128, Seed: 42,
		Shards: 4, Workers: 1,
		Faults: &faults.Plan{Events: []faults.Event{
			faults.Partition(cut, 10*time.Second, 90*time.Second),
		}},
	})
	if res.Engine == nil {
		t.Fatal("run did not go through the sharded engine")
	}
	if res.CompletionTime <= 90*time.Second {
		t.Fatalf("completed at %v, inside the partition window", res.CompletionTime)
	}
}

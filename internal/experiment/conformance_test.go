package experiment

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mnp/internal/faults"
	"mnp/internal/packet"
)

// The conformance kit runs every protocol in ProtocolNames() through
// the same rows with the invariant checker on, and holds each run to
// the paper's reliability requirement: every live mote ends with a
// byte-identical image, and no slot of its EEPROM is written twice,
// across a reboot included: every protocol resumes from its flash. No
// row excuses a broken invariant. A protocol that leaves live motes
// without the image declares so once, in its row of declared; an
// undeclared shortfall fails, and so does a declared one that stops
// happening.

// verdict is how one run must end. The zero value is a full pass:
// every live mote completes, VerifyImages holds and no invariant
// breaks.
type verdict struct {
	// completed, when non-zero, is the exact number of motes holding
	// the image when a run that does not cover every live mote ends.
	completed int
	// limit ends a run declared incomplete early instead of at the
	// kit's 6 h.
	limit time.Duration
	// extra is an assertion only this protocol's row makes.
	extra func(res *Result) error
}

// declaration is one protocol's row: its verdict on each kit row it
// does not pass in full, and the rows only it runs.
type declaration struct {
	// decodes is true for a protocol that decodes: every non-base mote
	// that completes has charged GF(256) row operations, and no other
	// protocol charges any.
	decodes  bool
	verdicts map[string]verdict
	extra    []kitRow
}

// kitRow is one run. setup gives the topology and seed (128 packets
// and seed 42 unless set); faults is its fault plan in the -faults
// grammar of faults.ParseSpec. drive, when set, is called between Build
// and Start for rows whose fault depends on the run (one tile only):
// poll runs after every event and premise reports, after the run, a
// fault that never landed.
type kitRow struct {
	name   string
	setup  Setup
	faults string
	drive  func(res *Result) (poll func(), premise func() error)
}

var (
	denseGrid  = Setup{Rows: 4, Cols: 4, Spacing: 10}
	sparseGrid = Setup{Rows: 4, Cols: 4, Spacing: 20}
	corridor   = Setup{Rows: 2, Cols: 20, Spacing: 15}
)

// kitRows are the rows every protocol runs: clean completion on three
// topologies, then the chaos rows on the dense grid. The reboot lands
// at 10 s because n5 holds part of the segment then under every
// protocol, which its premise checks.
var kitRows = []kitRow{
	{name: "clean-dense", setup: denseGrid},
	{name: "clean-sparse", setup: sparseGrid},
	{name: "clean-corridor", setup: corridor},
	{name: "crash-forward", setup: denseGrid, faults: "crash:5@20s; crash:10@40s"},
	{name: "reboot", setup: denseGrid, faults: "reboot:5@10s+10s"},
	{name: "flaky-eeprom", setup: denseGrid, faults: "eeprom:*:0.05"},
	{name: "loss30", setup: denseGrid, faults: "degrade:*->*@0s-6h:0.3"},
	{name: "partition", setup: denseGrid, faults: "partition:8-15@30s-90s"},
	{name: "random-crashes", setup: denseGrid, faults: "randkill:2@20s-60s"},
}

// declared is every protocol's row. XNP is single-hop, so each of its
// rows counts the motes in the base's range that complete.
var declared = map[ProtocolKind]declaration{
	ProtocolMNP: {
		verdicts: map[string]verdict{
			"partition": {extra: completesAfterHeal},
		},
		extra: []kitRow{
			{name: "combined", setup: Setup{Rows: 4, Cols: 4, Seed: 7},
				faults: "reboot:9@20s+15s; degrade:1<->2@20s-2m:0.6; eeprom:6:0.1@0s-2m"},
			{name: "base-death", setup: Setup{Rows: 5, Cols: 5, Seed: 23}, drive: killBaseAfterSeeding},
			{name: "sender-death", setup: Setup{Rows: 4, Cols: 4, Spacing: 15, ImagePackets: 256, Seed: 24},
				drive: killFirstSender},
		},
	},
	ProtocolDeluge: {},
	ProtocolMOAP:   {},
	ProtocolGossip: {},
	ProtocolRLNC: {
		decodes: true,
		verdicts: map[string]verdict{
			// n5 and n8 stall at seed 42 (ROADMAP item 9); the row
			// flips to a full pass when item 9 lands.
			"clean-sparse": {completed: 14, limit: time.Hour},
		},
		extra: []kitRow{
			{name: "gauntlet", setup: denseGrid,
				faults: "reboot:10@60s+10s; eeprom:*:0.05; degrade:*->*@0s-6h:0.3"},
		},
	},
	ProtocolXNP: {verdicts: map[string]verdict{
		"clean-dense":    {completed: 8},
		"clean-sparse":   {completed: 3},
		"clean-corridor": {completed: 4},
		"crash-forward":  {completed: 7},
		"reboot":         {completed: 8},
		"flaky-eeprom":   {completed: 8},
		"loss30":         {completed: 8},
		"partition":      {completed: 8},
		"random-crashes": {completed: 7},
	}},
}

// TestConformance runs each protocol through every kit row, a
// determinism row (clean-dense again: same completion time and tx
// count) and its own extra rows. Each clean row logs Mehta & Kwak's
// broadcast-comparison triple. Under -short it drops the rows declared
// incomplete with a limit, which run to it: today rlnc's clean-sparse.
func TestConformance(t *testing.T) {
	for p := range declared {
		if _, err := ParseProtocol(string(p)); err != nil {
			t.Errorf("declared row for %v: %v", p, err)
		}
	}
	for _, name := range ProtocolNames() {
		p := ProtocolKind(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, ok := declared[p]
			if !ok {
				t.Fatalf("%s has no row in declared", name)
			}
			for row := range d.verdicts {
				if !slices.ContainsFunc(kitRows, func(r kitRow) bool { return r.name == row }) {
					t.Errorf("verdict for %q, which is not a kit row", row)
				}
			}
			clean := kitRows[0]
			var first *Result // clean's run, which the determinism row repeats
			for _, row := range slices.Concat(kitRows, d.extra) {
				v := d.verdicts[row.name]
				if testing.Short() && v.limit != 0 {
					continue
				}
				t.Run(row.name, func(t *testing.T) {
					res := row.run(t, p, d, v)
					if row.faults == "" && row.drive == nil {
						logBroadcastTriple(t, res)
					}
					if row.name == clean.name {
						first = res
					}
				})
			}
			t.Run("determinism", func(t *testing.T) {
				if first == nil { // -run picked this row alone
					first = clean.run(t, p, d, d.verdicts[clean.name])
				}
				again := clean.run(t, p, d, d.verdicts[clean.name])
				if first.CompletionTime != again.CompletionTime || totalTx(first) != totalTx(again) {
					t.Fatalf("two runs differ: (%v, %d tx) vs (%v, %d tx)",
						first.CompletionTime, totalTx(first), again.CompletionTime, totalTx(again))
				}
			})
		})
	}
}

// TestCheckerHoldsForEveryProtocol runs each protocol on the dense 4×4
// grid with a 300-packet image — three segments, the last one partial —
// under the checker, held to its clean-dense verdict (xnp 8/16). Every
// kit row carries one whole segment; this run is the one that crosses
// segment boundaries, where in-order-segments and the per-segment image
// checks apply.
func TestCheckerHoldsForEveryProtocol(t *testing.T) {
	row := kitRow{name: "three-segments", setup: denseGrid}
	row.setup.ImagePackets = 300
	for _, name := range ProtocolNames() {
		p := ProtocolKind(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := declared[p]
			row.run(t, p, d, d.verdicts[kitRows[0].name])
		})
	}
}

// TestBaseWritesOnceAcrossReboot power-cycles the base of every
// protocol mid-run: its flash survives, so its preload skips every slot
// it holds and writes each one once.
func TestBaseWritesOnceAcrossReboot(t *testing.T) {
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plan, err := faults.ParseSpec("reboot:0@20s+10s")
			if err != nil {
				t.Fatal(err)
			}
			s := denseGrid
			s.Name, s.Protocol, s.ImagePackets, s.Seed = "base-reboot", ProtocolKind(name), 128, 42
			s.Faults, s.Invariants, s.Limit = plan, true, 30*time.Minute
			res, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			down := false
			res.Kernel.MustSchedule(25*time.Second, func() { down = res.Network.Node(0).Down() })
			if err := res.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			if !down {
				t.Fatal("the base was up at 25 s: the reboot did not land")
			}
			if w := res.Network.Node(0).EEPROM().MaxWriteCount(); w != 1 {
				t.Errorf("the base wrote a slot %d times", w)
			}
			for _, v := range res.Invariants.Violations() {
				if v.Node == 0 && v.Rule == "write-once-eeprom" {
					t.Fatalf("base: %v", v)
				}
			}
		})
	}
}

// TestFlashFaultOnBaseFailsTheRun: a base whose flash refuses a write
// at t = 0 cannot hold the image it is to spread. Every protocol
// returns that as the run's error, naming the injected fault, instead
// of panicking inside Init.
func TestFlashFaultOnBaseFailsTheRun(t *testing.T) {
	plan, err := faults.ParseSpec("eeprom:0:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			s := Setup{Name: "base-flash-fault", Protocol: ProtocolKind(name), Rows: 2, Cols: 2, ImagePackets: 64, Seed: 42, Faults: plan}
			res, err := Run(s)
			if err == nil || !strings.Contains(err.Error(), "injected write fault") {
				t.Fatalf("Run = %v, %v; want the injected write fault", res, err)
			}
		})
	}
}

// TestUnrestartableRebootIsAnError: a plan that reboots a mote still
// down from another reboot, or one a crash has killed, is refused
// before it runs. ParseSpec refuses the spec, and Run refuses
// the same plan built in Go, each naming the mote.
func TestUnrestartableRebootIsAnError(t *testing.T) {
	for spec, events := range map[string][]faults.Event{
		"reboot:5@10s+20s; reboot:5@15s+20s": {
			faults.CrashReboot(5, 10*time.Second, 20*time.Second), faults.CrashReboot(5, 15*time.Second, 20*time.Second)},
		"crash:5@5s; reboot:5@10s+10s": {
			faults.Crash(5, 5*time.Second), faults.CrashReboot(5, 10*time.Second, 10*time.Second)},
	} {
		t.Run(spec, func(t *testing.T) {
			if _, err := faults.ParseSpec(spec); err == nil || !strings.Contains(err.Error(), "n5") {
				t.Errorf("ParseSpec(%q) = %v, want an error naming n5", spec, err)
			}
			s := Setup{Name: "unrestartable", Rows: 4, Cols: 4, ImagePackets: 64, Seed: 42, Faults: &faults.Plan{Events: events}}
			if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "n5") {
				t.Errorf("Run = %v, want an error naming n5", err)
			}
		})
	}
}

// TestChaosSpecRoundTrip: MNP's reboot row with its plan built in Go
// instead of parsed from the -faults grammar is the same run, to the
// completion time and tx count.
func TestChaosSpecRoundTrip(t *testing.T) {
	spec := kitRows[slices.IndexFunc(kitRows, func(r kitRow) bool { return r.name == "reboot" })]
	inGo := spec
	inGo.faults = ""
	inGo.setup.Faults = &faults.Plan{Events: []faults.Event{faults.CrashReboot(5, 10*time.Second, 10*time.Second)}}
	d := declared[ProtocolMNP]
	a, b := spec.run(t, ProtocolMNP, d, verdict{}), inGo.run(t, ProtocolMNP, d, verdict{})
	if a.CompletionTime != b.CompletionTime || totalTx(a) != totalTx(b) {
		t.Fatalf("spec %q: (%v, %d tx); Go plan: (%v, %d tx)",
			spec.faults, a.CompletionTime, totalTx(a), b.CompletionTime, totalTx(b))
	}
}

// run makes row's run of protocol p and holds it to v and d.
func (row kitRow) run(t *testing.T, p ProtocolKind, d declaration, v verdict) *Result {
	t.Helper()
	s := row.setup
	s.Name, s.Protocol, s.Limit = row.name, p, v.limit
	if s.ImagePackets == 0 {
		s.ImagePackets = 128
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if row.faults != "" {
		plan, err := faults.ParseSpec(row.faults)
		if err != nil {
			t.Fatal(err)
		}
		s.Faults = plan
	}
	res := conform(t, s, v, row.drive)
	if err := checkDecodes(res, d.decodes); err != nil {
		t.Error(err)
	}
	return res
}

// conform builds s with the checker on, runs it to completion or its
// limit (6 h unless set) and holds it to v. Before the run it arms a
// premise for each fault in the plan — the faults.Kind switch below —
// and for drive's fault; a premise that does not hold fails the run,
// as does an error from v.extra.
func conform(t *testing.T, s Setup, v verdict, drive func(*Result) (func(), func() error)) *Result {
	t.Helper()
	s.Invariants = true
	if s.Limit == 0 {
		s.Limit = 6 * time.Hour
	}
	res, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	premises := armPremises(res)
	if drive == nil {
		if err := res.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
	} else {
		poll, premise := drive(res)
		premises = append(premises, premise)
		if err := res.Network.Start(); err != nil {
			t.Fatal(err)
		}
		res.Completed = res.Kernel.RunUntil(func() bool {
			poll()
			return res.Network.AllCompleted()
		}, s.Limit)
		res.CompletionTime = res.Network.CompletionTime()
	}

	n, done := res.Layout.N(), res.Network.CompletedCount()
	switch {
	case v.completed == 0 && !res.Completed:
		t.Errorf("%d/%d motes completed; every live mote must", done, n)
	case v.completed != 0 && (res.Completed || done != v.completed):
		t.Errorf("%d/%d motes completed (all live: %v), declared %d", done, n, res.Completed, v.completed)
	}
	if err := res.VerifyInvariants(); err != nil {
		t.Error(err)
	}
	if v.completed == 0 {
		if err := res.VerifyImages(); err != nil {
			t.Error(err)
		}
	} else {
		// A declared shortfall excuses the motes that did not finish,
		// not a wrong byte on a mote that did finish.
		for _, n := range res.Network.Nodes {
			if !n.Dead() && n.Completed() {
				if err := res.verifyBytes(n); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if res.Completed && res.CompletionTime <= 0 {
		t.Errorf("completion time %v", res.CompletionTime)
	}
	for _, premise := range premises {
		if err := premise(); err != nil {
			t.Error(err)
		}
	}
	if v.extra != nil {
		if err := v.extra(res); err != nil {
			t.Error(err)
		}
	}
	return res
}

// armPremises schedules the probes that show each fault of the run's
// plan landed where its row says, and returns the checks that read
// them once the run is over.
func armPremises(res *Result) []func() error {
	if res.Setup.Faults == nil {
		return nil
	}
	var checks []func() error
	kills := 0
	for _, ev := range res.Setup.Faults.Events {
		switch ev.Kind {
		case faults.KindCrash:
			kills++
			checks = append(checks, func() error {
				if res.Completed && res.CompletionTime <= ev.At {
					return fmt.Errorf("crash of %v at %v came after completion (%v)", ev.Node, ev.At, res.CompletionTime)
				}
				return nil
			})
		case faults.KindRandomCrashes:
			kills += ev.Count
		case faults.KindReboot:
			checks = append(checks, armRebootProbe(res, ev))
		case faults.KindEEPROM:
			checks = append(checks, func() error {
				injected := 0
				for _, n := range res.Network.Nodes {
					injected += n.EEPROM().FaultCount()
				}
				if injected == 0 {
					return fmt.Errorf("no EEPROM write fault was injected")
				}
				return nil
			})
		case faults.KindPartition:
			lacking := -1
			at(res, ev.At, func() {
				lacking = 0
				for _, id := range ev.Group {
					if !res.Network.Node(id).Completed() {
						lacking++
					}
				}
			})
			checks = append(checks, func() error {
				if lacking <= 0 {
					return fmt.Errorf("every cut mote held the image at the cut (%v); the partition tested nothing", ev.At)
				}
				return nil
			})
		}
	}
	if kills > 0 {
		checks = append(checks, func() error {
			dead := 0
			for _, n := range res.Network.Nodes {
				if n.Dead() {
					dead++
				}
			}
			if dead != kills {
				return fmt.Errorf("%d motes dead, want the %d the plan killed", dead, kills)
			}
			return nil
		})
	}
	return checks
}

// armRebootProbe reads the victim's progress an instant before its
// power blip: the reboot must land mid-segment, with the victim holding
// part of the image and not all of it. A protocol that decodes before
// it stores (rlnc) holds its part in RAM, shown by the row operations
// it has charged. After the run the victim must be alive and complete
// with no slot written twice: every protocol resumes from its flash.
func armRebootProbe(res *Result, ev faults.Event) func() error {
	slots, ops := -1, 0
	at(res, ev.At-time.Millisecond, func() {
		slots = res.Network.Node(ev.Node).EEPROM().Slots()
		ops = res.Collector.Ledger(ev.Node, ev.At).DecodeRowOps
	})
	return func() error {
		if (slots <= 0 && ops == 0) || slots >= res.Setup.ImagePackets {
			return fmt.Errorf("%v held %d/%d packets (%d decode ops) at its %v reboot; not mid-segment",
				ev.Node, slots, res.Setup.ImagePackets, ops, ev.At)
		}
		n := res.Network.Node(ev.Node)
		if n.Dead() || n.Down() || !n.Completed() {
			return fmt.Errorf("rebooted %v: dead %v, down %v, completed %v", ev.Node, n.Dead(), n.Down(), n.Completed())
		}
		if w := n.EEPROM().MaxWriteCount(); w != 1 {
			return fmt.Errorf("rebooted %v wrote a slot %d times", ev.Node, w)
		}
		return nil
	}
}

// at runs fn at simulated time when: on the kernel, or at the engine's
// first barrier not earlier than when.
func at(res *Result, when time.Duration, fn func()) {
	if res.Engine != nil {
		res.Engine.At(when, fn)
		return
	}
	if _, err := res.Kernel.ScheduleAt(when, fn); err != nil {
		panic(err)
	}
}

// completesAfterHeal: MNP's cut half holds no complete mote at the cut,
// and a mote serves only a segment it holds whole, so the cut half
// cannot finish before the heal.
func completesAfterHeal(res *Result) error {
	heal := res.Setup.Faults.Events[0].Until
	if res.CompletionTime <= heal {
		return fmt.Errorf("completed at %v, inside the partition window (heal at %v)", res.CompletionTime, heal)
	}
	return nil
}

// killBaseAfterSeeding kills the base once a third of the motes hold
// the image; the other sources must finish coverage.
func killBaseAfterSeeding(res *Result) (func(), func() error) {
	killed := false
	return func() {
			if !killed && res.Network.CompletedCount() >= res.Layout.N()/3 {
				killed = true
				res.Network.Kill(res.Setup.BaseID)
			}
		}, func() error {
			if !killed {
				return fmt.Errorf("the base was never killed")
			}
			return nil
		}
}

// killFirstSender kills the first non-base mote to become a sender,
// 500 ms into its stream; its followers must fail over to other
// sources.
func killFirstSender(res *Result) (func(), func() error) {
	var victim packet.NodeID
	found := false
	return func() {
			if found {
				return
			}
			for _, ev := range res.Collector.SenderEvents() {
				if ev.Node != res.Setup.BaseID {
					victim, found = ev.Node, true
					at(res, res.Kernel.Now()+500*time.Millisecond, func() { res.Network.Kill(victim) })
					return
				}
			}
		}, func() error {
			if !found {
				return fmt.Errorf("no non-base sender emerged")
			}
			if !res.Network.Node(victim).Dead() {
				return fmt.Errorf("sender %v outlived the run", victim)
			}
			return nil
		}
}

// checkDecodes holds the run's decode ledger to decodes: a decoding
// protocol charges row operations on every non-base mote that
// completes, and nothing charges any on the base or under another
// protocol.
func checkDecodes(res *Result, decodes bool) error {
	for _, n := range res.Network.Nodes {
		l := res.Collector.Ledger(n.ID(), res.CompletionTime)
		switch {
		case !decodes || n.ID() == res.Setup.BaseID:
			if l.DecodeRowOps != 0 {
				return fmt.Errorf("%v charged %d decode row ops; it never decodes", n.ID(), l.DecodeRowOps)
			}
		case n.Completed() && (l.DecodeRowOps == 0 || l.DecodeCharge() <= 0):
			return fmt.Errorf("%v decoded the image with %d charged row ops", n.ID(), l.DecodeRowOps)
		}
	}
	return nil
}

// logBroadcastTriple logs Mehta & Kwak's broadcast-comparison triple
// for a clean run: reachability (completed motes over N), redundant
// receptions (data frames heard by non-base motes per packet each
// needed) and latency (completion time).
func logBroadcastTriple(t *testing.T, res *Result) {
	n := res.Layout.N()
	rx := 0
	for id := 0; id < n; id++ {
		if packet.NodeID(id) != res.Setup.BaseID {
			rx += res.Collector.RxByClass(packet.NodeID(id), packet.ClassData)
		}
	}
	t.Logf("%v %s: reachability %.3f, redundant receptions %.2f, latency %v",
		res.Setup.Protocol, res.Setup.Name, float64(res.Network.CompletedCount())/float64(n),
		float64(rx)/float64((n-1)*res.Setup.ImagePackets), res.CompletionTime.Round(time.Second))
}

func totalTx(res *Result) int {
	tx := 0
	for id := 0; id < res.Layout.N(); id++ {
		tx += res.Collector.TxCount(packet.NodeID(id))
	}
	return tx
}

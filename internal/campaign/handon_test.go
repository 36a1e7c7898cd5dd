package campaign

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mnp/internal/experiment"
	"mnp/internal/metrics"
	"mnp/internal/race"
)

// handOnPlan puts every protocol on two deployments of different size
// whose frame-success memos are the same size (512 slots), so a cell of
// one takes the other's memo as well as its kernel and tile.
func handOnPlan(t *testing.T) *Plan {
	t.Helper()
	names := experiment.ProtocolNames()
	return parseTestPlan(t, fmt.Sprintf(`
version = 1
name = "hand-on"
protocols = ["%s"]
seeds = [42]
[[topologies]]
kind = "grid"
rows = 3
cols = 3
[[topologies]]
kind = "line"
n = 12
[scenario]
[scenario.run]
image_packets = 64
limit = "2h"
`, strings.Join(names, `", "`)))
}

// cellsOf indexes a plan's cells by protocol and topology label.
func cellsOf(t *testing.T, p *Plan) map[string]Cell {
	t.Helper()
	cells, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Cell{}
	for _, c := range cells {
		byName[c.Protocol+"/"+c.Topology] = c
	}
	return byName
}

// runSnapshot runs c as RunCell does, release included, and returns
// the run's metrics snapshot.
func runSnapshot(t *testing.T, c Cell) metrics.Snapshot {
	t.Helper()
	setup, err := c.Scenario.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(setup)
	if err != nil {
		t.Fatal(err)
	}
	until := res.CompletionTime
	if !res.Completed {
		until = res.Setup.Limit
	}
	snap := res.Collector.Snapshot(until)
	res.Release()
	return snap
}

// drainPools empties every pool a released run fills, so the next cell
// runs as the first of a process would: a collection moves a pool's
// items to its victim cache, and the next one drops them.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// TestHandedOnStateIsInvisible: for every protocol, a cell run right
// after a released cell of another protocol and another size — whose
// kernel, memo, tile, generators and flash rows it takes — gives the
// CellResult and the metrics snapshot of the same cell run fresh.
func TestHandedOnStateIsInvisible(t *testing.T) {
	cells := cellsOf(t, handOnPlan(t))
	names := experiment.ProtocolNames()
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			target, other := cells[name+"/grid-3x3"], cells[names[(i+1)%len(names)]+"/line-12"]
			drainPools()
			fresh := RunCell(target)
			drainPools()
			freshSnap := runSnapshot(t, target)

			if !race.Enabled { // the detector drops pooled items at random anyway
				gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1) // what Release puts, the next Get takes
				defer func() { runtime.GOMAXPROCS(procs); debug.SetGCPercent(gc) }()
			}
			RunCell(other)
			warm := RunCell(target)
			RunCell(other)
			warmSnap := runSnapshot(t, target)
			if fresh.Err != "" {
				t.Fatalf("fresh cell failed: %s", fresh.Err)
			}
			if warm != fresh {
				t.Errorf("after a released %s cell:\n%+v\nfresh:\n%+v", other.Key, warm, fresh)
			}
			if !reflect.DeepEqual(warmSnap, freshSnap) {
				t.Errorf("snapshot after a released %s cell:\n%+v\nfresh:\n%+v", other.Key, warmSnap, freshSnap)
			}
		})
	}
}

// TestHandedOnStateAcrossWorkers runs the same cells through the
// Runner's pool of two workers, where a cell takes what a cell on the
// other goroutine released: every result equals the cell run fresh.
// CI runs it under -race.
func TestHandedOnStateAcrossWorkers(t *testing.T) {
	p := handOnPlan(t)
	out, err := (&Runner{Plan: p, Workers: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	cells := cellsOf(t, p)
	if len(out.Results) != len(cells) {
		t.Fatalf("%d results for %d cells", len(out.Results), len(cells))
	}
	for _, got := range out.Results {
		drainPools()
		if want := RunCell(cells[got.Protocol+"/"+got.Topology]); got != want {
			t.Errorf("at 2 workers:\n%+v\nfresh:\n%+v", got, want)
		}
	}
}

// TestFlashFaultCellFailsAlone: a cell whose base cannot store its
// image fails with that error, and the campaign's other cells still
// run to completion.
func TestFlashFaultCellFailsAlone(t *testing.T) {
	out, err := (&Runner{Plan: parseTestPlan(t, `
version = 1
name = "flash-fault"
protocols = ["mnp", "deluge"]
seeds = [42]
fault_plans = ["", "eeprom:0:1"]
[scenario]
[scenario.topology]
kind = "grid"
rows = 2
cols = 2
[scenario.run]
image_packets = 64
`), Workers: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 || out.Report == "" {
		t.Fatalf("%d of 4 cells finished, report %q", len(out.Results), out.Report)
	}
	for _, r := range out.Results {
		switch {
		case r.Faults == "" && (r.Err != "" || !r.Completed):
			t.Errorf("%s: clean cell did not complete: %+v", r.Key, r)
		case r.Faults != "" && !strings.Contains(r.Err, "injected write fault"):
			t.Errorf("%s: error %q, want the injected write fault", r.Key, r.Err)
		}
	}
}

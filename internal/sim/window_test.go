package sim

import (
	"strings"
	"testing"
	"time"
)

// The window primitives — RunBefore, AdvanceTo, NextEventAt,
// ScheduleAt — are what the sharded engine builds lockstep windows out
// of; their edge semantics (strict exclusivity, barrier parking, exact
// absolute landing) are load-bearing for cross-shard determinism.

func TestRunBeforeIsExclusive(t *testing.T) {
	k := New(1)
	var fired []time.Duration
	for _, at := range []time.Duration{10, 20, 30} {
		at := at
		k.MustSchedule(at*time.Millisecond, func() { fired = append(fired, at) })
	}
	if n := k.RunBefore(20 * time.Millisecond); n != 1 {
		t.Fatalf("RunBefore(20ms) executed %d events, want 1", n)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired %v, want only the 10ms event", fired)
	}
	// The 20ms event is on the boundary and must still be pending.
	if at, ok := k.NextEventAt(); !ok || at != 20*time.Millisecond {
		t.Fatalf("next event at %v ok=%v, want 20ms pending", at, ok)
	}
	if n := k.RunBefore(31 * time.Millisecond); n != 2 {
		t.Fatalf("second window executed %d events, want 2", n)
	}
}

func TestRunBeforeRunsEventsScheduledInsideWindow(t *testing.T) {
	k := New(1)
	order := []string{}
	k.MustSchedule(time.Millisecond, func() {
		order = append(order, "a")
		// Lands inside the window: must run in the same RunBefore call.
		k.MustSchedule(time.Millisecond, func() { order = append(order, "b") })
		// Lands on the boundary: must not.
		k.MustSchedule(9*time.Millisecond, func() { order = append(order, "c") })
	})
	k.RunBefore(10 * time.Millisecond)
	if got := strings.Join(order, ""); got != "ab" {
		t.Fatalf("ran %q, want \"ab\"", got)
	}
}

func TestAdvanceToParksClockAtBarrier(t *testing.T) {
	k := New(1)
	k.MustSchedule(3*time.Millisecond, func() {})
	k.RunBefore(10 * time.Millisecond)
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("clock at %v after RunBefore, want 3ms", k.Now())
	}
	k.AdvanceTo(10 * time.Millisecond)
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want parked at the 10ms barrier", k.Now())
	}
	// Moving backwards is a no-op, not a panic.
	k.AdvanceTo(5 * time.Millisecond)
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("AdvanceTo into the past moved the clock to %v", k.Now())
	}
}

func TestAdvanceToPanicsOverPendingEvent(t *testing.T) {
	k := New(1)
	k.MustSchedule(time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo skipped a pending event without panicking")
		}
	}()
	k.AdvanceTo(time.Second)
}

func TestScheduleAtLandsAtAbsoluteTime(t *testing.T) {
	k := New(1)
	k.MustSchedule(5*time.Millisecond, func() {})
	k.RunBefore(6 * time.Millisecond) // clock now at 5ms
	var at time.Duration
	if _, err := k.ScheduleAt(8*time.Millisecond, func() { at = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.RunBefore(time.Second)
	if at != 8*time.Millisecond {
		t.Fatalf("event ran at %v, want the absolute 8ms", at)
	}
	// Scheduling before the current clock is an error, not a silent
	// reorder.
	if _, err := k.ScheduleAt(time.Millisecond, func() {}); err == nil {
		t.Fatal("ScheduleAt in the past accepted")
	}
	// Scheduling exactly at the clock is allowed (a frame can end on a
	// barrier).
	ran := false
	if _, err := k.ScheduleAt(k.Now(), func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	k.RunBefore(time.Second)
	if !ran {
		t.Fatal("event at the current instant never ran")
	}
}

func TestNextEventAtIsNonDestructive(t *testing.T) {
	k := New(1)
	if _, ok := k.NextEventAt(); ok {
		t.Fatal("empty kernel reports a pending event")
	}
	k.MustSchedule(7*time.Millisecond, func() {})
	for i := 0; i < 3; i++ {
		if at, ok := k.NextEventAt(); !ok || at != 7*time.Millisecond {
			t.Fatalf("peek %d: at=%v ok=%v, want 7ms", i, at, ok)
		}
	}
	if k.Pending() != 1 {
		t.Fatalf("peeking consumed events: %d pending", k.Pending())
	}
	// A cancelled head is reaped, not reported.
	tm := k.MustSchedule(time.Millisecond, func() {})
	tm.Cancel()
	if at, ok := k.NextEventAt(); !ok || at != 7*time.Millisecond {
		t.Fatalf("peek past cancelled head: at=%v ok=%v, want 7ms", at, ok)
	}
}

func TestNewSizedSchedulingMatchesNew(t *testing.T) {
	trace := func(k *Kernel) []int {
		var got []int
		for i := 0; i < 500; i++ {
			i := i
			k.MustSchedule(time.Duration(k.Rand().Intn(50))*time.Millisecond, func() {
				got = append(got, i)
			})
		}
		k.Run(time.Second)
		return got
	}
	a := trace(New(99))
	b := trace(NewSized(99, 2048))
	if len(a) != len(b) {
		t.Fatalf("executed %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("execution order diverges at %d: %d vs %d (capacity changed scheduling)", i, a[i], b[i])
		}
	}
}

// --- drained pools and events exactly on a barrier ---
// The barrier's slot summaries call NextEventAt on tiles whose pools
// have drained (skipIdle reads the verdict), and window ends land
// exactly on event timestamps.

func TestNextEventAtOnDrainedPool(t *testing.T) {
	k := New(1)
	for i := 1; i <= 4; i++ {
		k.MustSchedule(time.Duration(i)*time.Millisecond, func() {})
	}
	k.RunBefore(time.Second) // drain everything into the free list
	if at, ok := k.NextEventAt(); ok {
		t.Fatalf("drained pool reports a pending event at %v", at)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after drain", k.Pending())
	}
	// The drained pool must still accept and report new work (recycled
	// free-list entries must not leak stale timestamps).
	k.MustSchedule(2*time.Millisecond, func() {})
	if at, ok := k.NextEventAt(); !ok || at != k.Now()+2*time.Millisecond {
		t.Fatalf("after refill: at=%v ok=%v, want %v", at, ok, k.Now()+2*time.Millisecond)
	}
}

func TestRunBeforeSimultaneousEventsAtLimit(t *testing.T) {
	k := New(1)
	var ran []int
	for i := 0; i < 3; i++ {
		i := i
		k.MustSchedule(10*time.Millisecond, func() { ran = append(ran, i) })
	}
	// All three sit exactly on the window boundary: strictly-before
	// semantics must run none of them.
	if n := k.RunBefore(10 * time.Millisecond); n != 0 {
		t.Fatalf("RunBefore ran %d boundary events, want 0", n)
	}
	if len(ran) != 0 {
		t.Fatalf("boundary events fired early: %v", ran)
	}
	// AdvanceTo exactly onto the simultaneous events is legal (nothing
	// is skipped)...
	k.AdvanceTo(10 * time.Millisecond)
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want 10ms", k.Now())
	}
	// ...and the next window runs all three in scheduling (FIFO) order.
	if n := k.RunBefore(10*time.Millisecond + 1); n != 3 {
		t.Fatalf("next window ran %d events, want 3", n)
	}
	for i, got := range ran {
		if got != i {
			t.Fatalf("simultaneous events ran out of order: %v", ran)
		}
	}
}

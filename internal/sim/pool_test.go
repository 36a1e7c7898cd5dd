package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"mnp/internal/race"
)

// Fired and cancelled events return to the free list, by id, and are
// reused for later schedules.
func TestEventFreeListReuse(t *testing.T) {
	k := New(1)
	tm := k.MustSchedule(time.Millisecond, func() {})
	ev := tm.ev
	k.Run(time.Second)
	if len(k.free) != 1 || k.event(k.free[0]) != ev {
		t.Fatalf("fired event not recycled (free list %d entries)", len(k.free))
	}
	tm2 := k.MustSchedule(time.Millisecond, func() {})
	if tm2.ev != ev {
		t.Fatal("new schedule did not reuse the recycled event")
	}
	if len(k.free) != 0 || k.next != 1 {
		t.Fatalf("reuse left %d ids free and %d handed out, want 0 and 1", len(k.free), k.next)
	}
	tm2.Cancel()
	k.Run(time.Second)
	if len(k.free) != 1 || k.event(k.free[0]) != ev {
		t.Fatal("cancelled event not recycled")
	}
}

// A Timer handle from a previous life of a recycled event is stale: its
// generation no longer matches, so Cancel must not touch the new event
// and Active must report false.
func TestStaleTimerHandleIsInert(t *testing.T) {
	k := New(1)
	stale := k.MustSchedule(time.Millisecond, func() {})
	k.Run(time.Second) // fires; event recycled, generation bumped

	fired := false
	fresh := k.MustSchedule(time.Millisecond, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("test premise broken: event was not reused")
	}
	if stale.Active() {
		t.Fatal("stale handle reports active")
	}
	stale.Cancel() // must not cancel the fresh event
	if !fresh.Active() {
		t.Fatal("stale Cancel killed the fresh event")
	}
	k.Run(time.Second)
	if !fired {
		t.Fatal("fresh event did not fire after stale Cancel")
	}
}

// Steady-state scheduling (schedule one, run one, repeat) does not
// allocate once the pool is warm.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	k := New(1)
	k.MustSchedule(0, func() {})
	k.Run(time.Second) // warm the pool
	allocs := testing.AllocsPerRun(1000, func() {
		k.MustSchedule(time.Microsecond, func() {})
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state scheduling allocates %.1f per op, want 0", allocs)
	}
}

// A callback that schedules its own successor — the MAC retry, a
// periodic timer — refills the slot it fired from and allocates nothing,
// however deep the queue around it.
func TestSelfReschedulingFireAllocFree(t *testing.T) {
	k := NewSized(1, 64)
	for i := 1; i <= 40; i++ {
		k.MustSchedule(time.Duration(i)*time.Hour, func() {})
	}
	var tick func()
	tick = func() { k.MustSchedule(time.Microsecond, tick) }
	tick()
	depth := k.Pending()
	if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs > 0 {
		t.Fatalf("a self-rescheduling fire allocates %.1f per op, want 0", allocs)
	}
	if k.Pending() != depth || k.next != uint32(depth) || len(k.free) != 0 {
		t.Fatalf("after 1000 refills: %d pending, %d events handed out, %d free; want %d, %d, 0",
			k.Pending(), k.next, len(k.free), depth, depth)
	}
}

// The slab grows a block at a time and blocks never move: a handle
// issued before the growth still cancels its own event and no other,
// and every id resolves to a distinct event.
func TestSlabGrowthKeepsHandlesValid(t *testing.T) {
	k := NewSized(1, 1) // carves minBlock
	if k.carved != minBlock || cap(k.queue) != minBlock {
		t.Fatalf("a hint of 1 carved %d events and %d slots, want %d of each", k.carved, cap(k.queue), minBlock)
	}
	fired := make(map[int]bool)
	var handles []Timer
	for i := 0; i < 5*minBlock; i++ {
		i := i
		handles = append(handles, k.MustSchedule(time.Duration(i)*time.Millisecond, func() { fired[i] = true }))
	}
	if want := uint32(8 * minBlock); k.carved != want || len(k.more) != 3 {
		t.Fatalf("after %d schedules: %d events in 1+%d blocks, want %d in 1+3 (64, 64, 128, 256)", len(handles), k.carved, len(k.more), want)
	}
	seen := make(map[*event]bool)
	for id := uint32(0); id < k.carved; id++ {
		seen[k.event(id)] = true
	}
	if len(seen) != int(k.carved) {
		t.Fatalf("%d ids resolve to %d distinct events", k.carved, len(seen))
	}
	for i, h := range handles {
		if !h.Active() || h.ev != k.event(uint32(i)) {
			t.Fatalf("handle %d, issued before the slab grew, is no longer its event's", i)
		}
	}
	handles[3].Cancel()          // first block
	handles[minBlock+5].Cancel() // second
	handles[4*minBlock].Cancel() // last
	k.Run(time.Hour)
	for i := range handles {
		if cancelled := i == 3 || i == minBlock+5 || i == 4*minBlock; fired[i] == cancelled {
			t.Fatalf("event %d: fired %v, cancelled %v", i, fired[i], cancelled)
		}
	}
	if len(k.free) != len(handles) {
		t.Fatalf("%d of %d events came back to the free list", len(k.free), len(handles))
	}
}

// New carves nothing until the first schedule.
func TestNewCarvesLazily(t *testing.T) {
	k := New(1)
	if k.carved != 0 || k.first != nil || k.queue != nil {
		t.Fatal("New carved events before anything was scheduled")
	}
	k.MustSchedule(0, func() {})
	if k.carved != minBlock {
		t.Fatalf("first schedule carved %d events, want %d", k.carved, minBlock)
	}
}

// The queue is invisible to the collector only as long as a slot holds
// no pointer, at any depth; a hinted kernel carves one per entry, next
// to the 48-byte event TestResetAllocFreeAndEventSize pins.
func TestSlotIsPointerFree(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false // pointer, slice, string, map, chan, func, interface
	}
	if !walk(reflect.TypeOf(slot{})) {
		t.Fatal("slot holds a pointer: the collector scans the queue and every sift pays the write barrier")
	}
	if walk(reflect.TypeOf(event{})) {
		t.Fatal("the walk is broken: event holds a func")
	}
	if sz := unsafe.Sizeof(slot{}); sz > 24 {
		t.Fatalf("slot is %d bytes, want at most 24", sz)
	}
}

// holdPools makes what a test puts into a pool the next Get's: no
// collection empties the pools, and one P holds them all (a Get does
// not look in another P's private slot). When the test ends the pools
// are drained — a collection moves a pool's items to its victim cache,
// and the next one drops them — so no later test takes a kernel it
// released.
func holdPools(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops pooled items at random")
	}
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		runtime.GC()
		runtime.GC()
	})
}

// exercise runs a small schedule on k: timers that fire, one that is
// cancelled, one re-armed, one left pending, and draws from the
// generator. It returns what a run of it observes.
func exercise(k *Kernel) []int64 {
	var log []int64
	note := func(v int64) { log = append(log, int64(k.Now()), v) }
	for i := range 20 {
		k.MustSchedule(time.Duration(i%7)*time.Millisecond, func() { note(k.Rand().Int63n(1000)) })
	}
	k.MustSchedule(3*time.Millisecond, func() { note(-1) }).Cancel()
	re := k.MustScheduleArg(time.Millisecond, func(a uint32) { note(int64(a)) }, 7)
	k.ResetArg(re, 5*time.Millisecond, func(a uint32) { note(int64(a)) }, 8)
	k.MustSchedule(time.Hour, func() { note(-2) })
	k.Run(time.Second)
	return append(log, int64(k.Pending()), k.Rand().Int63())
}

// A released kernel that NewSized takes runs as a fresh one would: the
// same clock, order, pending count and generator stream.
func TestReleasedKernelRunsAsFresh(t *testing.T) {
	holdPools(t)
	want := exercise(NewSized(9, 64))
	k := NewSized(1, 100) // grows past its hint below
	for i := range 300 {
		k.MustSchedule(time.Duration(i)*time.Second, func() {})
	}
	k.Run(time.Minute)
	k.Rand().Read(make([]byte, 3)) // leaves buffered bytes the re-seed must drop
	k.Release()
	again := NewSized(9, 64)
	if again != k {
		t.Fatal("NewSized did not take the released kernel")
	}
	if got := exercise(again); !slices.Equal(got, want) {
		t.Fatalf("a reused kernel ran\n%v\nwant\n%v", got, want)
	}
}

// A Timer from a released kernel is inert in the kernel's next life: it
// reports inactive, and its Cancel leaves the event now in its slot
// alone. That holds for a timer still pending at the release and for
// one that had fired.
func TestTimerFromReleasedKernelIsInert(t *testing.T) {
	holdPools(t)
	k := NewSized(1, 64)
	fired := k.MustSchedule(time.Millisecond, func() {})
	pending := k.MustSchedule(time.Hour, func() {})
	k.Run(time.Second)
	k.Release()
	k = NewSized(2, 64)
	ran := 0
	a := k.MustSchedule(time.Millisecond, func() { ran++ })
	b := k.MustSchedule(time.Millisecond, func() { ran++ })
	if a.ev != fired.ev && a.ev != pending.ev || b.ev != fired.ev && b.ev != pending.ev {
		t.Fatal("test premise broken: the new events are not in the old timers' slots")
	}
	for _, old := range []Timer{fired, pending} {
		if old.Active() {
			t.Fatal("a timer from the released run reports active")
		}
		old.Cancel()
	}
	if !a.Active() || !b.Active() {
		t.Fatal("a stale Cancel killed an event of the next run")
	}
	k.Run(time.Second)
	if ran != 2 {
		t.Fatalf("%d of 2 events of the next run fired", ran)
	}
}

// NewSized takes a released kernel only if it has carved the hint; a
// smaller one is dropped and the kernel is built as without the pool,
// its first block holding the hint.
func TestPooledKernelSmallerThanHintNotTaken(t *testing.T) {
	holdPools(t)
	small := NewSized(1, 64)
	small.Release()
	k := NewSized(1, 1000)
	if k == small {
		t.Fatal("NewSized took a kernel of 64 events for a hint of 1000")
	}
	if len(k.first) != 1000 || k.carved != 1000 || cap(k.queue) != 1000 || len(k.more) != 0 {
		t.Fatalf("first block %d, carved %d, queue %d, %d more blocks; want 1000, 1000, 1000, 0",
			len(k.first), k.carved, cap(k.queue), len(k.more))
	}
	if again := NewSized(1, 64); again == small {
		t.Fatal("the too-small kernel went back to the pool")
	}
}

// NewRand gives rand.New(rand.NewSource(seed))'s stream, whether it
// builds a generator or re-seeds one ReleaseRand handed back mid-Read.
func TestNewRandMatchesFreshSource(t *testing.T) {
	t.Cleanup(func() { runtime.GC(); runtime.GC() })
	used := NewRand(3)
	used.Read(make([]byte, 5))
	ReleaseRand(used)
	for _, seed := range []int64{0, 42, -7} {
		r, want := NewRand(seed), rand.New(rand.NewSource(seed))
		buf, wantBuf := make([]byte, 11), make([]byte, 11)
		r.Read(buf)
		want.Read(wantBuf)
		if !slices.Equal(buf, wantBuf) || r.Int63() != want.Int63() {
			t.Fatalf("seed %d: NewRand's stream is not NewSource's", seed)
		}
		ReleaseRand(r)
	}
}

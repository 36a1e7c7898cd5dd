package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// Reset is specified as Cancel followed by MustSchedule. The model test
// and the fuzz target below hold it to that: one script drives a kernel
// that re-arms through Reset and a twin that cancels and schedules, and
// everything observable must agree after every step.

// firing is one executed callback: when it ran and which arm call (in
// script order) it belonged to.
type firing struct {
	at time.Duration
	id int
}

// resetDriver runs a script against one kernel. reset selects how a
// slot is re-armed; nothing else differs between the twins.
type resetDriver struct {
	k      *Kernel
	reset  bool
	slots  [6]Timer
	log    []firing
	nextID int
}

// scriptDelay maps a script byte to a delay. The range is small, and
// zero is in it, so equal instants, same-instant re-arms and re-arms
// shorter than the pending deadline are all common.
func scriptDelay(b byte) time.Duration {
	return time.Duration(b%8) * time.Millisecond
}

// arm re-arms slot s. chain is consumed by the callback: a non-empty
// chain re-arms another slot (possibly its own, by then a stale handle)
// from inside the callback.
func (d *resetDriver) arm(s int, delay time.Duration, chain []byte) {
	id := d.nextID
	d.nextID++
	fn := func() {
		d.log = append(d.log, firing{d.k.Now(), id})
		if len(chain) >= 2 {
			d.arm(int(chain[0])%len(d.slots), scriptDelay(chain[1]), chain[2:])
		}
	}
	if d.reset {
		d.slots[s] = d.k.Reset(d.slots[s], delay, fn)
		return
	}
	d.slots[s].Cancel()
	d.slots[s] = d.k.MustSchedule(delay, fn)
}

// step interprets one operation from the front of data and returns the
// rest, or nil when the script is exhausted.
func (d *resetDriver) step(data []byte) []byte {
	take := func(n int) []byte {
		if len(data) < n {
			data = nil
			return nil
		}
		a := data[:n]
		data = data[n:]
		return a
	}
	op := take(1)
	if op == nil {
		return nil
	}
	switch op[0] % 8 {
	case 0, 1, 2: // re-arm a slot, the callback chaining up to two more
		a := take(3)
		if a == nil {
			return nil
		}
		chain := take(2 * int(a[2]%3))
		d.arm(int(a[0])%len(d.slots), scriptDelay(a[1]), chain)
	case 3: // cancel a slot (re-armed or not, pending or not)
		if a := take(1); a != nil {
			d.slots[int(a[0])%len(d.slots)].Cancel()
		}
	case 4: // a plain one-shot beside the timers
		if a := take(1); a != nil {
			id := d.nextID
			d.nextID++
			d.k.MustSchedule(scriptDelay(a[0]), func() { d.log = append(d.log, firing{d.k.Now(), id}) })
		}
	case 5:
		d.k.Step()
	case 6: // an engine window: run strictly before the barrier, park on it
		if a := take(1); a != nil {
			barrier := d.k.Now() + scriptDelay(a[0])
			d.k.RunBefore(barrier)
			d.k.AdvanceTo(barrier)
		}
	case 7:
		if a := take(1); a != nil {
			d.k.Run(d.k.Now() + scriptDelay(a[0]))
		}
	}
	return data
}

// runResetScript drives the twins through data and fails on the first
// observable difference.
func runResetScript(t *testing.T, data []byte) {
	t.Helper()
	a := &resetDriver{k: New(1), reset: true}
	b := &resetDriver{k: New(1)}
	compared := 0 // firings already found equal
	check := func(step int) {
		t.Helper()
		if a.k.Now() != b.k.Now() {
			t.Fatalf("step %d: clocks differ: Reset %v, Cancel+Schedule %v", step, a.k.Now(), b.k.Now())
		}
		an, aok := a.k.NextEventAt()
		bn, bok := b.k.NextEventAt()
		if an != bn || aok != bok {
			t.Fatalf("step %d: NextEventAt differs: Reset (%v, %v), Cancel+Schedule (%v, %v)", step, an, aok, bn, bok)
		}
		for s := range a.slots {
			if a.slots[s].Active() != b.slots[s].Active() {
				t.Fatalf("step %d: slot %d Active differs: Reset %v, Cancel+Schedule %v",
					step, s, a.slots[s].Active(), b.slots[s].Active())
			}
		}
		if len(a.log) != len(b.log) {
			t.Fatalf("step %d: Reset fired %d callbacks, Cancel+Schedule %d", step, len(a.log), len(b.log))
		}
		for ; compared < len(a.log); compared++ {
			if i := compared; a.log[i] != b.log[i] {
				t.Fatalf("step %d: firing %d differs: Reset %+v, Cancel+Schedule %+v", step, i, a.log[i], b.log[i])
			}
		}
		if a.k.Pending() > b.k.Pending() {
			t.Fatalf("step %d: Reset queue holds %d entries, Cancel+Schedule %d", step, a.k.Pending(), b.k.Pending())
		}
	}
	step := 0
	for rest := data; rest != nil; step++ {
		next := a.step(rest)
		b.step(rest)
		rest = next
		check(step)
	}
	a.k.Run(time.Hour)
	b.k.Run(time.Hour)
	check(step)
	if a.k.Pending() != 0 {
		t.Fatalf("%d entries left in the Reset kernel after the drain", a.k.Pending())
	}
}

func TestResetMatchesCancelThenSchedule(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		runResetScript(t, data)
	}
}

func FuzzKernelReset(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 0, 0, 7, 0, 0, 0, 2, 0, 5, 5})             // pushed out, then pulled in (the fallback)
	f.Add([]byte{0, 1, 3, 1, 1, 0, 2, 0, 0, 0, 3, 1, 3, 1, 6, 4, 7, 7}) // callback re-arms its own slot and a pending one
	f.Add([]byte{0, 2, 4, 0, 4, 4, 0, 2, 4, 0, 4, 4, 3, 2, 6, 4, 6, 0}) // equal instants, cancel of a re-armed timer
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runResetScript(t, data)
	})
}

// However often a pending timer is pushed out it stays one queue entry,
// fires once, and fires at the last deadline.
func TestResetKeepsOneEntry(t *testing.T) {
	k := New(1)
	fired := 0
	var at time.Duration
	fn := func() { fired++; at = k.Now() }
	var tm Timer
	for i := 0; i < 10000; i++ {
		// A ticking clock, as under a stream of data packets.
		k.MustSchedule(time.Duration(i)*time.Microsecond, func() {})
		k.Step()
		tm = k.Reset(tm, 3*time.Second, fn)
		if k.Pending() != 1 {
			t.Fatalf("after %d re-arms the queue holds %d entries, want 1", i+1, k.Pending())
		}
	}
	want := k.Now() + 3*time.Second
	if !tm.Active() {
		t.Fatal("re-armed timer is not active")
	}
	k.Run(time.Hour)
	if fired != 1 || at != want {
		t.Fatalf("fired %d times, last at %v; want once at %v", fired, at, want)
	}
}

// A re-arm in place consumes a sequence number exactly as a fresh
// schedule would: among callbacks due at one instant, the re-armed one
// runs after those scheduled before the Reset and before those
// scheduled after it.
func TestResetOrdersByResetTime(t *testing.T) {
	k := New(1)
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	tm := k.MustSchedule(time.Millisecond, log("stale"))
	k.MustSchedule(5*time.Millisecond, log("before"))
	tm = k.Reset(tm, 5*time.Millisecond, log("timer"))
	k.MustSchedule(5*time.Millisecond, log("after"))
	if at, ok := k.NextEventAt(); !ok || at != 5*time.Millisecond {
		t.Fatalf("NextEventAt = %v, %v; want the re-armed deadline 5ms, not the entry's old place", at, ok)
	}
	if k.Now() != 0 {
		t.Fatalf("peeking moved the clock to %v", k.Now())
	}
	k.Run(time.Second)
	if got, want := fmt.Sprint(order), "[before timer after]"; got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}
}

// Reset refuses a negative delay the way MustSchedule does.
func TestResetNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a negative delay did not panic")
		}
	}()
	New(1).Reset(Timer{}, -time.Nanosecond, func() {})
}

// A re-arm in place does not allocate, and the due key did not grow the
// pooled event past 48 bytes (sim.NewSized carves 2 per mote).
func TestResetAllocFreeAndEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 48 {
		t.Fatalf("event is %d bytes, want at most 48", sz)
	}
	k := New(1)
	fn := func() {}
	tm := k.MustSchedule(time.Second, fn)
	allocs := testing.AllocsPerRun(1000, func() { tm = k.Reset(tm, time.Second, fn) })
	if allocs > 0 {
		t.Fatalf("in-place re-arm allocates %.1f per op, want 0", allocs)
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// Two specifications hold the kernel, and one script checks both. Reset
// is specified as Cancel followed by MustSchedule: a kernel that re-arms
// through Reset and a twin that cancels and schedules must agree on
// everything observable. And the queue — keys in pointer-free slots, a
// firing event's slot refilled from the root — is specified by the
// kernel it replaced, kept as refKernel in ref_test.go: the two must
// agree on everything observable and on Pending exactly, after every
// step, through every way of running, with callbacks that schedule
// nothing, one event or several, cancel and re-arm their own and other
// handles, and look at the queue while they run. Callbacks come in
// both forms, a closure of their own or one of two handlers shared by
// every argument-form event and told which event it runs by the
// argument, and a re-arm may switch a pending timer from one form to
// the other.

// handle is what a script holds for an armed slot.
type handle interface {
	Cancel()
	Active() bool
}

// callback is a scheduled callback in either form: fn(), or fnArg(arg)
// when fnArg is set.
type callback struct {
	fn    func()
	fnArg func(uint32)
	arg   uint32
}

// scripted is the part of the kernel API a script drives. rearm and
// schedule hide the two Timer types and pick the form's entry point.
type scripted interface {
	Now() time.Duration
	Step() bool
	Run(limit time.Duration) int
	RunBefore(limit time.Duration) int
	RunUntil(pred func() bool, limit time.Duration) bool
	AdvanceTo(t time.Duration)
	NextEventAt() (time.Duration, bool)
	Pending() int
	Stop()
	schedule(delay time.Duration, c callback) handle
	rearm(h handle, delay time.Duration, c callback) handle
}

type newKernel struct{ *Kernel }

func (k newKernel) schedule(d time.Duration, c callback) handle {
	if c.fnArg != nil {
		return k.MustScheduleArg(d, c.fnArg, c.arg)
	}
	return k.MustSchedule(d, c.fn)
}
func (k newKernel) rearm(h handle, d time.Duration, c callback) handle {
	t, _ := h.(Timer) // a slot never armed holds the zero Timer
	if c.fnArg != nil {
		return k.ResetArg(t, d, c.fnArg, c.arg)
	}
	return k.Reset(t, d, c.fn)
}

type oldKernel struct{ *refKernel }

func (k oldKernel) schedule(d time.Duration, c callback) handle {
	if c.fnArg != nil {
		return k.MustScheduleArg(d, c.fnArg, c.arg)
	}
	return k.MustSchedule(d, c.fn)
}
func (k oldKernel) rearm(h handle, d time.Duration, c callback) handle {
	t, _ := h.(refTimer)
	if c.fnArg != nil {
		return k.ResetArg(t, d, c.fnArg, c.arg)
	}
	return k.Reset(t, d, c.fn)
}

// record is one thing a run made observable, in order: a callback that
// fired ('f': when, which arm call in script order, and form: 0 for a
// closure, 1 or 2 for the shared handler that ran it), what NextEventAt
// said inside a callback ('n': the instant, 1 if there was one), or
// what a run call returned ('r': events executed, or RunUntil's
// verdict).
type record struct {
	what byte
	at   time.Duration
	id   int
	form byte
}

// scriptDriver runs a script against one kernel. reset selects how a
// slot is re-armed; nothing else differs between the drivers.
type scriptDriver struct {
	k     scripted
	reset bool
	slots [6]handle
	log   []record
	pend  []int    // Pending as seen from inside callbacks
	progs [][]byte // each arm call's program, by id
	// shared are the argument-form handlers: an event's argument is its
	// id, so the handler that runs it finds its program.
	shared [2]func(uint32)
}

func newScriptDriver(k scripted, reset bool) *scriptDriver {
	d := &scriptDriver{k: k, reset: reset}
	for h := range d.shared {
		d.shared[h] = func(arg uint32) { d.fire(int(arg), byte(h+1)) }
	}
	return d
}

// scriptDelay maps a script byte to a delay. The range is small, and
// zero is in it, so equal instants, same-instant re-arms, re-arms
// shorter than the pending deadline, and schedules before, at and after
// everything queued are all common.
func scriptDelay(b byte) time.Duration {
	return time.Duration(b%8) * time.Millisecond
}

// arm re-arms slot s with a callback that logs itself and then runs
// prog; b, the script byte the delay came from, selects the form.
func (d *scriptDriver) arm(s int, b byte, prog []byte) {
	c := d.callback(b, prog)
	if d.reset {
		d.slots[s] = d.k.rearm(d.slots[s], scriptDelay(b), c)
		return
	}
	if d.slots[s] != nil {
		d.slots[s].Cancel()
	}
	d.slots[s] = d.k.schedule(scriptDelay(b), c)
}

// callback makes the next arm call's callback: a closure of its own, or
// when b has bit 0x10 set one of the shared handlers, with the call's
// id as the argument.
func (d *scriptDriver) callback(b byte, prog []byte) callback {
	id := len(d.progs)
	d.progs = append(d.progs, prog)
	if b&0x10 != 0 {
		return callback{fnArg: d.shared[id%2], arg: uint32(id)}
	}
	return callback{fn: func() { d.fire(id, 0) }}
}

// fire logs that call id's callback ran, in form, and runs its program.
func (d *scriptDriver) fire(id int, form byte) {
	d.log = append(d.log, record{'f', d.k.Now(), id, form})
	d.exec(d.progs[id])
}

// exec interprets a callback's program, (op, arg) pairs, from inside
// the callback — that is, while the firing event's slot is a hole at
// the root of the new kernel's queue.
func (d *scriptDriver) exec(prog []byte) {
	for len(prog) >= 2 {
		op, arg := prog[0], prog[1]
		prog = prog[2:]
		slot := int(op>>3) % len(d.slots)
		switch op % 8 {
		case 0, 1: // re-arm a slot — its own, by then a stale handle, or another; the rest of the program moves into that callback
			d.arm(slot, arg, prog)
			return
		case 2: // re-arm a slot and carry on: several schedules from one callback
			d.arm(slot, arg, nil)
		case 3: // a one-shot beside the timers
			d.k.schedule(scriptDelay(arg), d.callback(arg, nil))
		case 4:
			if h := d.slots[slot]; h != nil {
				h.Cancel()
			}
		case 5: // looks at the root: closes the hole, settles what surfaced
			at, ok := d.k.NextEventAt()
			n := 0
			if ok {
				n = 1
			}
			d.log = append(d.log, record{'n', at, n, 0})
		case 6: // counts without looking
			d.pend = append(d.pend, d.k.Pending())
		case 7:
			d.k.Stop()
		}
	}
}

// step interprets one operation from the front of data and returns the
// rest, or nil when the script is exhausted.
func (d *scriptDriver) step(data []byte) []byte {
	take := func(n int) []byte {
		if len(data) < n {
			data = nil
			return nil
		}
		a := data[:n]
		data = data[n:]
		return a
	}
	ran := func(n int) { d.log = append(d.log, record{'r', d.k.Now(), n, 0}) }
	op := take(1)
	if op == nil {
		return nil
	}
	switch op[0] % 8 {
	case 0, 1, 2: // re-arm a slot, the callback running a program of up to four operations
		a := take(3)
		if a == nil {
			return nil
		}
		prog := take(2 * int(a[2]%5))
		d.arm(int(a[0])%len(d.slots), a[1], prog)
	case 3: // cancel a slot (re-armed or not, pending or not)
		if a := take(1); a != nil {
			if h := d.slots[int(a[0])%len(d.slots)]; h != nil {
				h.Cancel()
			}
		}
	case 4: // a plain one-shot beside the timers
		if a := take(1); a != nil {
			d.k.schedule(scriptDelay(a[0]), d.callback(a[0], nil))
		}
	case 5:
		d.k.Step()
	case 6: // an engine window: run strictly before the barrier, park on it
		if a := take(1); a != nil {
			barrier := d.k.Now() + scriptDelay(a[0])
			for {
				ran(d.k.RunBefore(barrier))
				// A callback may have stopped the run short of the barrier.
				if next, ok := d.k.NextEventAt(); !ok || next >= barrier {
					break
				}
			}
			d.k.AdvanceTo(barrier)
		}
	case 7: // run to a limit, or until so many more records are logged
		if a := take(1); a != nil {
			limit := d.k.Now() + scriptDelay(a[0])
			if a[0]&0x40 == 0 {
				ran(d.k.Run(limit))
				break
			}
			want := len(d.log) + int(a[0]>>3)%4
			n := 0
			if d.k.RunUntil(func() bool { return len(d.log) >= want }, limit) {
				n = 1
			}
			ran(n)
		}
	}
	return data
}

// runScript drives the three kernels through data and fails on the
// first observable difference.
func runScript(t *testing.T, data []byte) {
	t.Helper()
	a := newScriptDriver(newKernel{New(1)}, true)
	b := newScriptDriver(newKernel{New(1)}, false)
	c := newScriptDriver(oldKernel{&refKernel{}}, true)
	compared := 0 // records already found equal
	// same compares what every pair of drivers must agree on.
	same := func(step int, x *scriptDriver, xn string, y *scriptDriver, yn string, look bool) {
		t.Helper()
		if x.k.Now() != y.k.Now() {
			t.Fatalf("step %d: clocks differ: %s %v, %s %v", step, xn, x.k.Now(), yn, y.k.Now())
		}
		if look {
			xa, xok := x.k.NextEventAt()
			ya, yok := y.k.NextEventAt()
			if xa != ya || xok != yok {
				t.Fatalf("step %d: NextEventAt differs: %s (%v, %v), %s (%v, %v)", step, xn, xa, xok, yn, ya, yok)
			}
		}
		for s := range x.slots {
			xs, ys := x.slots[s] != nil && x.slots[s].Active(), y.slots[s] != nil && y.slots[s].Active()
			if xs != ys {
				t.Fatalf("step %d: slot %d Active differs: %s %v, %s %v", step, s, xn, xs, yn, ys)
			}
		}
		if len(x.log) != len(y.log) {
			t.Fatalf("step %d: %s logged %d records, %s %d", step, xn, len(x.log), yn, len(y.log))
		}
		for i := compared; i < len(x.log); i++ {
			if x.log[i] != y.log[i] {
				t.Fatalf("step %d: record %d differs: %s %c%+v, %s %c%+v", step, i, xn, x.log[i].what, x.log[i], yn, y.log[i].what, y.log[i])
			}
		}
	}
	// look says whether this check may call NextEventAt, which closes a
	// hole and settles stale roots on the way: the script decides, so
	// roots also surface in Step and Pending is also compared unsettled.
	check := func(step int, look bool) {
		t.Helper()
		same(step, a, "Reset", b, "Cancel+Schedule", look)
		same(step, a, "keys", c, "pointers", look)
		compared = len(a.log)
		if a.k.Pending() > b.k.Pending() {
			t.Fatalf("step %d: Reset queue holds %d entries, Cancel+Schedule %d", step, a.k.Pending(), b.k.Pending())
		}
		// The hole lives only as long as the callback that left it: a
		// callback that schedules nothing has it closed by Step.
		if a.k.(newKernel).hole || b.k.(newKernel).hole {
			t.Fatalf("step %d: a hole is open at the root with no callback running", step)
		}
		if a.k.Pending() != c.k.Pending() {
			t.Fatalf("step %d: Pending differs: keys %d, pointers %d", step, a.k.Pending(), c.k.Pending())
		}
		if fmt.Sprint(a.pend) != fmt.Sprint(c.pend) {
			t.Fatalf("step %d: Pending inside callbacks differs: keys %v, pointers %v", step, a.pend, c.pend)
		}
		a.pend, c.pend = a.pend[:0], c.pend[:0]
	}
	step := 0
	for rest := data; rest != nil; step++ {
		look := len(rest) > 0 && rest[0]&0x80 == 0
		next := a.step(rest)
		b.step(rest)
		c.step(rest)
		rest = next
		check(step, look)
	}
	// Drain. A callback may still Stop a run, so run until nothing is
	// left; programs only shrink, so this ends.
	for a.k.Pending() > 0 || b.k.Pending() > 0 || c.k.Pending() > 0 {
		a.k.Run(time.Hour)
		b.k.Run(time.Hour)
		c.k.Run(time.Hour)
		step++
		check(step, true)
	}
}

func TestResetMatchesCancelThenSchedule(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		runScript(t, data)
	}
}

func FuzzKernelReset(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 0, 0, 7, 0, 0, 0, 2, 0, 5, 5})                   // pushed out, then pulled in (the fallback)
	f.Add([]byte{0, 0, 7, 0, 0, 1, 3, 2, 10, 1, 0, 5, 6, 4, 7, 7})            // callback re-arms its own slot and a pending one
	f.Add([]byte{0, 2, 4, 0, 4, 4, 0, 2, 4, 0, 4, 4, 3, 2, 6, 4, 6, 0})       // equal instants, cancel of a re-armed timer
	f.Add([]byte{4, 7, 0, 0, 1, 0, 0x85, 0x85})                               // a callback that schedules nothing: Step closes the hole
	f.Add([]byte{4, 3, 4, 3, 0, 0, 1, 4, 3, 0, 3, 3, 2, 2, 3, 5, 0x85, 5, 5}) // several schedules from one callback: zero delay, equal to and later than the queue
	f.Add([]byte{4, 5, 0, 0, 1, 2, 6, 0, 5, 0, 0x85, 5})                      // Pending, then NextEventAt, from inside a callback: the hole is discounted, then closed
	f.Add([]byte{0, 0, 1, 0, 0, 0, 6, 0, 0x86, 2, 0, 0, 7, 0, 0x85, 7, 7})    // a stale root surfaces, sinks to its due key, and is re-armed again
	f.Add([]byte{4, 5, 0, 0, 1, 3, 7, 0, 8, 1, 7, 0, 7, 7, 7, 0x5F, 7, 7})    // Stop from inside a callback, under Run and under RunUntil
	f.Add([]byte{0, 0, 0x15, 0, 0, 0, 0x17, 0, 0, 0, 0x12, 0, 5, 5})          // an argument-form timer pushed out, then pulled in
	f.Add([]byte{0, 0, 0x17, 0, 0, 0, 6, 0, 0, 0, 0x17, 0, 4, 0x14, 5, 5, 5}) // re-armed in place from one form to the other and back
	f.Add([]byte{4, 0x13, 4, 3, 0, 1, 0x12, 1, 0x11, 0x34, 7, 7, 7})          // shared handlers interleaved with closures at one instant
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runScript(t, data)
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

// The argument form is as cheap as the plain one: a warm schedule of a
// shared handler and an in-place re-arm of it allocate nothing.
func TestArgFormAllocFree(t *testing.T) {
	k := New(1)
	fn := func(uint32) {}
	k.MustScheduleArg(0, fn, 1)
	k.Run(time.Second) // warm the pool
	if allocs := testing.AllocsPerRun(1000, func() {
		k.MustScheduleArg(time.Microsecond, fn, 7)
		k.Step()
	}); allocs > 0 {
		t.Fatalf("argument-form scheduling allocates %.1f per op, want 0", allocs)
	}
	tm := k.MustScheduleArg(time.Second, fn, 3)
	if allocs := testing.AllocsPerRun(1000, func() { tm = k.ResetArg(tm, time.Second, fn, 4) }); allocs > 0 {
		t.Fatalf("argument-form in-place re-arm allocates %.1f per op, want 0", allocs)
	}
	if k.Pending() != 1 {
		t.Fatalf("after 1000 re-arms the queue holds %d entries, want 1", k.Pending())
	}
}

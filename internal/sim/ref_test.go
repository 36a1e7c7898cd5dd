package sim

import (
	"fmt"
	"time"
)

// refKernel is the kernel as it was before the queue held keys and a
// firing event's slot was refilled: a 4-ary heap of *refEvent, every
// fired event popped before its callback and every schedule pushed from
// a new leaf, the position key kept in the event, a free list of
// pointers. It is the reference the model test and the fuzz target
// compare Kernel against, so it is kept as it was — same key
// assignment, same settle rule, same Reset fast path — and nothing here
// is shared with sim.go. The one addition is the argument form: an
// event runs fn() or fnArg(arg), and an argument-form schedule or
// re-arm follows the same rules as the plain one.
type refKernel struct {
	now     time.Duration
	seq     uint64
	queue   []*refEvent
	free    []*refEvent
	stopped bool
}

type refEvent struct {
	at        time.Duration
	seq       uint64
	due       time.Duration
	dueSeq    uint64
	fn        func()
	fnArg     func(uint32)
	arg       uint32
	gen       uint32
	cancelled bool
	fired     bool
}

type refTimer struct {
	ev  *refEvent
	gen uint32
}

func (t refTimer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.cancelled = true
	}
}

func (t refTimer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled && !t.ev.fired
}

func (k *refKernel) Now() time.Duration { return k.now }

func (k *refKernel) MustSchedule(delay time.Duration, fn func()) refTimer {
	if delay < 0 {
		panic(fmt.Errorf("sim: negative delay %v", delay))
	}
	return k.at(k.now+delay, fn, nil, 0)
}

func (k *refKernel) MustScheduleArg(delay time.Duration, fn func(uint32), arg uint32) refTimer {
	if delay < 0 {
		panic(fmt.Errorf("sim: negative delay %v", delay))
	}
	return k.at(k.now+delay, nil, fn, arg)
}

func (k *refKernel) Reset(t refTimer, delay time.Duration, fn func()) refTimer {
	if ev := t.ev; delay >= 0 && t.Active() && k.now+delay >= ev.at {
		ev.due, ev.dueSeq, ev.fn, ev.fnArg = k.now+delay, k.seq, fn, nil
		k.seq++
		return t
	}
	t.Cancel()
	return k.MustSchedule(delay, fn)
}

func (k *refKernel) ResetArg(t refTimer, delay time.Duration, fn func(uint32), arg uint32) refTimer {
	if ev := t.ev; delay >= 0 && t.Active() && k.now+delay >= ev.at {
		ev.due, ev.dueSeq, ev.fn, ev.fnArg, ev.arg = k.now+delay, k.seq, nil, fn, arg
		k.seq++
		return t
	}
	t.Cancel()
	return k.MustScheduleArg(delay, fn, arg)
}

func (k *refKernel) at(when time.Duration, fn func(), fnArg func(uint32), arg uint32) refTimer {
	var ev *refEvent
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free = k.free[:n-1]
		ev.cancelled, ev.fired = false, false
	} else {
		ev = &refEvent{}
	}
	ev.at, ev.seq, ev.fn, ev.fnArg, ev.arg = when, k.seq, fn, fnArg, arg
	ev.due, ev.dueSeq = when, k.seq
	k.seq++
	k.push(ev)
	return refTimer{ev: ev, gen: ev.gen}
}

func (k *refKernel) recycle(ev *refEvent) {
	ev.gen++
	ev.fn, ev.fnArg = nil, nil
	k.free = append(k.free, ev)
}

func (e *refEvent) stale() bool { return e.cancelled || e.dueSeq != e.seq }

func (k *refKernel) settle(ev *refEvent) {
	if ev.cancelled {
		k.recycle(ev)
		return
	}
	ev.at, ev.seq = ev.due, ev.dueSeq
	k.push(ev)
}

func (k *refKernel) Step() bool {
	for len(k.queue) > 0 {
		ev := k.pop()
		if ev.stale() {
			k.settle(ev)
			continue
		}
		k.now = ev.at
		ev.fired = true
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		k.recycle(ev)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

func (k *refKernel) Stop() { k.stopped = true }

func (k *refKernel) Run(limit time.Duration) int {
	k.stopped = false
	n := 0
	for !k.stopped {
		next, ok := k.peek()
		if !ok || next > limit {
			break
		}
		if !k.Step() {
			break
		}
		n++
	}
	return n
}

func (k *refKernel) RunBefore(limit time.Duration) int {
	k.stopped = false
	n := 0
	for !k.stopped {
		next, ok := k.peek()
		if !ok || next >= limit {
			break
		}
		if !k.Step() {
			break
		}
		n++
	}
	return n
}

func (k *refKernel) NextEventAt() (time.Duration, bool) { return k.peek() }

func (k *refKernel) AdvanceTo(t time.Duration) {
	if t <= k.now {
		return
	}
	if next, ok := k.peek(); ok && next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip an event at %v", t, next))
	}
	k.now = t
}

func (k *refKernel) RunUntil(pred func() bool, limit time.Duration) bool {
	if pred() {
		return true
	}
	k.stopped = false
	for !k.stopped {
		next, ok := k.peek()
		if !ok || next > limit {
			return false
		}
		if !k.Step() {
			return false
		}
		if pred() {
			return true
		}
	}
	return false
}

func (k *refKernel) Pending() int { return len(k.queue) }

func (k *refKernel) peek() (time.Duration, bool) {
	for len(k.queue) > 0 {
		ev := k.queue[0]
		if ev.stale() {
			k.settle(k.pop())
			continue
		}
		return ev.at, true
	}
	return 0, false
}

func (e *refEvent) before(f *refEvent) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

func (k *refKernel) push(ev *refEvent) {
	q := append(k.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	k.queue = q
}

func (k *refKernel) pop() *refEvent {
	q := k.queue
	n := len(q) - 1
	min := q[0]
	last := q[n]
	q[n] = nil
	q = q[:n]
	k.queue = q
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return min
}

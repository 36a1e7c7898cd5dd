// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, a priority queue of events, cancellable timers, and a
// seeded RNG. It plays the role TOSSIM plays in the paper — the
// substrate every experiment runs on — while guaranteeing that a run is
// a pure function of its seed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; everything in a simulation executes inside event
// callbacks on one goroutine.
type Kernel struct {
	now     time.Duration
	seq     uint64
	queue   eventHeap
	free    []*event
	rng     *rand.Rand
	stopped bool
}

// initialQueueCap pre-sizes the event heap and free list so
// steady-state scheduling never grows either: a 400-node deployment
// keeps on the order of one timer and one in-flight frame per node.
const initialQueueCap = 1024

// New returns a kernel whose RNG is seeded with seed. Two kernels with
// the same seed and the same schedule of callbacks produce identical
// runs.
func New(seed int64) *Kernel {
	return NewSized(seed, 0)
}

// NewSized returns a kernel whose event heap and free list are
// pre-sized for roughly hint simultaneous events, so large deployments
// (which keep a few timers and an in-flight frame per node) never grow
// either mid-run. A hint at or below the default capacity behaves
// exactly like New; capacity never changes scheduling order.
func NewSized(seed int64, hint int) *Kernel {
	c := initialQueueCap
	if hint > c {
		c = hint
	}
	k := &Kernel{
		queue: make(eventHeap, 0, c),
		rng:   rand.New(rand.NewSource(seed)),
	}
	if hint > 0 {
		// Carve the free list out of one contiguous block: scheduling
		// stays allocation-free from the first event and neighboring
		// events share cache lines.
		block := make([]event, c)
		k.free = make([]*event, 0, c)
		for i := range block {
			k.free = append(k.free, &block[i])
		}
	}
	return k
}

// Now returns the current virtual time (elapsed since simulation
// start).
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic RNG. All randomness in a
// simulation must come from here.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Timer is a handle to a scheduled event. It is a small value; copy it
// freely. The zero Timer is inert: Cancel is a no-op and Active
// reports false.
//
// Fired and cancelled events are recycled through a free list, so a
// Timer remembers the generation of the event it was issued for and
// quietly expires when the event's slot is reused — a stale handle
// cannot cancel someone else's event. The generation is 32 bits wide
// (it shares a word with the event's flags so the due key fits in 48
// bytes), so the guarantee holds until one slot has been reused 2³²
// times under a single live handle.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.cancelled = true
	}
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled && !t.ev.fired
}

// Schedule runs fn after delay of virtual time. A negative delay is an
// error; a zero delay runs fn after all events already scheduled for
// the current instant (FIFO among equal times).
func (k *Kernel) Schedule(delay time.Duration, fn func()) (Timer, error) {
	if delay < 0 {
		return Timer{}, fmt.Errorf("sim: negative delay %v", delay)
	}
	return k.at(k.now+delay, fn), nil
}

// MustSchedule is Schedule for delays known to be non-negative; it
// panics otherwise.
func (k *Kernel) MustSchedule(delay time.Duration, fn func()) Timer {
	t, err := k.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return t
}

// ScheduleAt runs fn at the absolute virtual time when, which must not
// precede the current clock. The sharded engine uses it to land
// cross-shard frame deliveries at their exact end-of-frame instants,
// which were computed on another shard's clock.
func (k *Kernel) ScheduleAt(when time.Duration, fn func()) (Timer, error) {
	if when < k.now {
		return Timer{}, fmt.Errorf("sim: schedule at %v before now %v", when, k.now)
	}
	return k.at(when, fn), nil
}

// Reset re-arms t: it is exactly t.Cancel() followed by
// MustSchedule(delay, fn) — one sequence number is consumed and fn runs
// at (now+delay, that number) — and returns the timer to use from then
// on (t itself must not be used again). When t is still pending and the
// new instant is not earlier than the entry's place in the queue, the
// entry stays where it is and only its due key moves; Step and peek put
// it at its due key when it surfaces. A watchdog pushed out by every
// packet heard therefore occupies one queue slot however often it is
// re-armed, instead of leaving a cancelled entry behind each time. Like
// MustSchedule, Reset panics on a negative delay.
func (k *Kernel) Reset(t Timer, delay time.Duration, fn func()) Timer {
	if ev := t.ev; delay >= 0 && t.Active() && k.now+delay >= ev.at {
		// The new sequence number exceeds ev.seq, so the due key is after
		// the position key and the heap invariant still holds.
		ev.due, ev.dueSeq, ev.fn = k.now+delay, k.seq, fn
		k.seq++
		return t
	}
	t.Cancel()
	return k.MustSchedule(delay, fn)
}

func (k *Kernel) at(when time.Duration, fn func()) Timer {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.cancelled, ev.fired = false, false
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn = when, k.seq, fn
	ev.due, ev.dueSeq = when, k.seq
	k.seq++
	k.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// recycle returns a popped event to the free list, bumping its
// generation so stale Timer handles expire.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	k.free = append(k.free, ev)
}

// stale reports whether a surfaced entry must be settled instead of
// run: it was cancelled, or Reset moved its due key past its position.
func (e *event) stale() bool { return e.cancelled || e.dueSeq != e.seq }

// settle disposes of a popped stale entry: a cancelled one is recycled,
// a re-armed one goes back into the heap at its due key. The position
// key is rewritten only here, while the entry is out of the heap — an
// edit in place would break the order among equal-time entries — and
// the clock is never set from an entry that still has to move.
func (k *Kernel) settle(ev *event) {
	if ev.cancelled {
		k.recycle(ev)
		return
	}
	ev.at, ev.seq = ev.due, ev.dueSeq
	k.push(ev)
}

// Step executes the next pending event. It returns false when the
// queue is empty.
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		ev := k.pop()
		if ev.stale() {
			k.settle(ev)
			continue
		}
		k.now = ev.at
		ev.fired = true
		fn := ev.fn
		k.recycle(ev)
		fn()
		return true
	}
	return false
}

// Stop makes the current Run return after the executing event
// completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains, the virtual clock would
// pass limit, or Stop is called. It returns the number of events
// executed. Events scheduled exactly at limit still run.
func (k *Kernel) Run(limit time.Duration) int {
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

// RunBefore executes every event strictly earlier than limit and
// returns the number executed. Events scheduled at or after limit stay
// queued and the clock is left at the last executed event. This is the
// window-bounded run the sharded engine advances each shard by: with
// limit = the next barrier, everything the shard can safely do without
// seeing other shards' frames runs, and nothing else.
func (k *Kernel) RunBefore(limit time.Duration) int {
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

// NextEventAt returns the time of the earliest pending event, without
// running it. The second result is false when the queue is empty.
func (k *Kernel) NextEventAt() (time.Duration, bool) { return k.peek() }

// AdvanceTo moves the clock forward to t without running anything. It
// panics if an event earlier than t is still pending — callers (the
// sharded engine, advancing every shard to a window barrier after
// RunBefore drained it) must have run those first. A t in the past is a
// no-op.
func (k *Kernel) AdvanceTo(t time.Duration) {
	if t <= k.now {
		return
	}
	if next, ok := k.peek(); ok && next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip an event at %v", t, next))
	}
	k.now = t
}

// RunUntil executes events until pred returns true, the clock passes
// limit, or the queue drains. It reports whether pred was satisfied.
// pred is evaluated after every event.
func (k *Kernel) RunUntil(pred func() bool, limit time.Duration) bool {
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

// Pending returns the number of events waiting (including cancelled
// ones not yet reaped). A timer re-armed through Reset counts once,
// however many times it was re-armed.
func (k *Kernel) Pending() int { return len(k.queue) }

// peek returns the time of the earliest live event. Cancelled entries
// and entries whose due key moved past their position are settled on
// the way, so the answer is a due time, never a stale position.
func (k *Kernel) peek() (time.Duration, bool) {
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

// event is one queue entry. (at, seq) is its position key — what the
// heap is ordered by, fixed while the entry is queued; (due, dueSeq) is
// when its callback runs. They are equal unless Reset pushed the
// callback out in place, and position ≤ due always holds, so when an
// entry with equal keys is the heap minimum no live callback anywhere
// in the queue is due before it.
type event struct {
	at        time.Duration
	seq       uint64
	due       time.Duration
	dueSeq    uint64
	fn        func()
	gen       uint32
	cancelled bool
	fired     bool
}

// before orders events by (time, insertion sequence) so equal-time
// events run FIFO and runs are deterministic. The order is total —
// sequence numbers are unique — so any heap arity pops events in the
// same order.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// eventHeap is a 4-ary min-heap of events. Quad-ary beats binary here:
// the tree is half as deep, sift-down touches fewer cache lines, and
// the kernel pops exactly as many events as it pushes. The sift
// routines move a hole instead of swapping, and are inlined free of
// interface calls — container/heap was the top CPU cost of a 400-node
// run.
type eventHeap []*event

// push inserts ev, sifting the hole up from the new leaf.
func (k *Kernel) push(ev *event) {
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

// pop removes and returns the minimum event, sifting the displaced
// last leaf down from the root.
func (k *Kernel) pop() *event {
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

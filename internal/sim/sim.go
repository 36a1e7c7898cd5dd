// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, a priority queue of events, cancellable timers, and a
// seeded RNG. It plays the role TOSSIM plays in the paper — the
// substrate every experiment runs on — while guaranteeing that a run is
// a pure function of its seed.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"
)

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; everything in a simulation executes inside event
// callbacks on one goroutine.
type Kernel struct {
	now   time.Duration
	seq   uint64
	queue eventHeap
	// hole is set while a callback runs and has scheduled nothing yet:
	// queue[0] still holds the firing event's slot, which is no longer
	// part of the queue. The callback's first schedule refills it;
	// otherwise whatever looks at the queue from inside the callback, or
	// Step when the callback returns, closes it with an ordinary pop.
	hole bool
	// Events live in blocks that never move, so a Timer can point at
	// one: first holds the size hint, and each block of more holds as
	// many events as everything carved before it. Ids below next have
	// been handed out; free holds the recycled ones.
	first   []event
	more    [][]event
	carved  uint32
	next    uint32
	free    []uint32
	rng     *rand.Rand
	stopped bool
}

// minBlock is the smallest first block of events: a kernel built
// without a useful hint (a test, a campaign cell of sixteen motes)
// starts here and doubles on demand.
const minBlock = 64

// New returns a kernel whose RNG is seeded with seed. Two kernels with
// the same seed and the same schedule of callbacks produce identical
// runs.
func New(seed int64) *Kernel {
	return NewSized(seed, 0)
}

// NewSized returns a kernel that has carved max(hint, 64) events and a
// queue of as many slots before the first schedule, so a deployment
// that says how deep its queue gets (a few timers and an in-flight
// frame per node) never grows either mid-run and neighbouring events
// share cache lines. A kernel that outgrows what it carved doubles its
// event slab a block at a time; a hint of zero or less is New, which
// carves its first block at the first schedule. Capacity never changes
// scheduling order.
//
// With a hint, NewSized takes a kernel an earlier run handed back
// (Release) when that kernel has already carved at least hint events;
// a smaller one is dropped and a kernel is built exactly as without
// the pool, so the first block still holds the hint.
func NewSized(seed int64, hint int) *Kernel {
	if hint > 0 {
		if k, ok := kernelPool.Get().(*Kernel); ok {
			if int(k.carved) >= hint {
				k.rng.Seed(seed)
				if cap(k.queue) < hint {
					k.queue = make(eventHeap, 0, k.carved)
				}
				return k
			}
			ReleaseRand(k.rng)
		}
	}
	k := &Kernel{rng: NewRand(seed)}
	if hint > 0 {
		k.grow(max(hint, minBlock))
		k.queue = make(eventHeap, 0, k.carved)
	}
	return k
}

// Release hands the kernel on, through a package pool, for a later
// NewSized to reuse once its run is over. Every event handed out so far
// drops its callbacks and moves to its next generation, so a Timer
// from this run stays inert: Active reports false and Cancel touches
// nothing, however the kernel is used next. The clock, sequence
// numbers, queue and free list start over, and NewSized re-seeds the
// generator, so the next run is the one a fresh kernel would give. The
// kernel must not be used after Release, and released only once.
func (k *Kernel) Release() {
	for id := range k.next {
		ev := k.event(id)
		ev.gen++
		ev.fn, ev.fnArg = nil, nil
	}
	k.now, k.seq, k.next = 0, 0, 0
	k.hole, k.stopped = false, false
	k.queue, k.free = k.queue[:0], k.free[:0]
	kernelPool.Put(k)
}

// kernelPool holds the kernels finished runs handed back (Release).
var kernelPool sync.Pool

// NewRand returns a generator seeded with seed: the stream
// rand.New(rand.NewSource(seed)) gives, bit for bit. It re-seeds one
// that ReleaseRand handed back when it can — Seed runs the same source
// seeding NewSource does and drops any buffered Read bytes — since a
// source is 4.9 KB and a campaign seeds several per cell.
func NewRand(seed int64) *rand.Rand {
	if r, ok := randPool.Get().(*rand.Rand); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// ReleaseRand hands r on for a later NewRand. Nothing may draw from r
// afterwards.
func ReleaseRand(r *rand.Rand) { randPool.Put(r) }

// randPool holds the generators handed back through ReleaseRand.
var randPool sync.Pool

// grow carves one more block of n events. It runs only when every
// carved event is queued, so the free list is empty and is re-made with
// room for all of them.
func (k *Kernel) grow(n int) {
	if k.first == nil {
		k.first = make([]event, n)
	} else {
		k.more = append(k.more, make([]event, n))
	}
	k.carved += uint32(n)
	k.free = make([]uint32, 0, k.carved)
}

// event returns the event with the given id. more[b] starts at id
// len(first)<<b.
func (k *Kernel) event(id uint32) *event {
	n := uint32(len(k.first))
	if id < n {
		return &k.first[id]
	}
	b := bits.Len32(id/n) - 1
	return &k.more[b][id-n<<b]
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
// cannot cancel someone else's event. An event's generation moves on
// as it fires, so the handle of a fired timer has expired by the time
// its callback runs. The generation is 32 bits wide, so the guarantee
// holds until one slot has been reused 2³² times under a single live
// handle.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.dueSeq = cancelled
	}
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.dueSeq != cancelled
}

// Schedule runs fn after delay of virtual time. A negative delay is an
// error; a zero delay runs fn after all events already scheduled for
// the current instant (FIFO among equal times).
func (k *Kernel) Schedule(delay time.Duration, fn func()) (Timer, error) {
	if delay < 0 {
		return Timer{}, fmt.Errorf("sim: negative delay %v", delay)
	}
	return k.at(k.now+delay, fn, nil, 0), nil
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
	return k.at(when, fn, nil, 0), nil
}

// MustScheduleArg is MustSchedule for a callback that takes an
// argument: fn(arg) runs after delay. One fn shared by many owners —
// every mote of a network, told apart by arg — schedules without
// binding a closure per owner.
func (k *Kernel) MustScheduleArg(delay time.Duration, fn func(uint32), arg uint32) Timer {
	if delay < 0 {
		panic(fmt.Errorf("sim: negative delay %v", delay))
	}
	return k.at(k.now+delay, nil, fn, arg)
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
	return k.reset(t, delay, fn, nil, 0)
}

// ResetArg is Reset for a callback that takes an argument: exactly
// t.Cancel() followed by MustScheduleArg(delay, fn, arg), re-armed in
// place when Reset would be.
func (k *Kernel) ResetArg(t Timer, delay time.Duration, fn func(uint32), arg uint32) Timer {
	return k.reset(t, delay, nil, fn, arg)
}

func (k *Kernel) reset(t Timer, delay time.Duration, fn func(), fnArg func(uint32), arg uint32) Timer {
	if ev := t.ev; delay >= 0 && t.Active() && k.now+delay >= ev.at {
		// The new sequence number exceeds the slot's, so the due key is
		// after the position key and the heap invariant still holds.
		ev.due, ev.dueSeq = k.now+delay, k.seq
		ev.fn, ev.fnArg, ev.arg = fn, fnArg, arg
		k.seq++
		return t
	}
	t.Cancel()
	if delay < 0 {
		panic(fmt.Errorf("sim: negative delay %v", delay))
	}
	return k.at(k.now+delay, fn, fnArg, arg)
}

// at queues one event: fn() or, when fnArg is set, fnArg(arg) at when.
// Every schedule comes through here and consumes one sequence number.
func (k *Kernel) at(when time.Duration, fn func(), fnArg func(uint32), arg uint32) Timer {
	var id uint32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		if k.next == k.carved {
			k.grow(max(int(k.carved), minBlock))
		}
		id = k.next
		k.next++
	}
	ev := k.event(id)
	ev.at, ev.due, ev.dueSeq = when, when, k.seq
	ev.fn, ev.fnArg, ev.arg = fn, fnArg, arg
	k.push(slot{at: when, seq: k.seq, id: id})
	k.seq++
	return Timer{ev: ev, gen: ev.gen}
}

// recycle returns an event that left the queue to the free list,
// bumping its generation so stale Timer handles expire.
func (k *Kernel) recycle(ev *event, id uint32) {
	ev.gen++
	ev.fn, ev.fnArg = nil, nil
	k.free = append(k.free, id)
}

// stale reports whether an entry that surfaced under position sequence
// seq must be settled instead of run: it was cancelled (its dueSeq is
// cancelled, which no position sequence equals), or Reset moved its due
// key past its position.
func (e *event) stale(seq uint64) bool { return e.dueSeq != seq }

// settle disposes of the stale entry at the root: a cancelled one is
// popped and recycled, a re-armed one sinks from the root to its due
// key. The position key is rewritten only here, as the entry is
// re-placed — an edit in place would break the order among equal-time
// entries — and the clock is never set from an entry that still has to
// move.
func (k *Kernel) settle(ev *event, id uint32) {
	if ev.dueSeq == cancelled {
		k.pop()
		k.recycle(ev, id)
		return
	}
	ev.at = ev.due
	k.sink(slot{at: ev.due, seq: ev.dueSeq, id: id})
}

// Step executes the next pending event. It returns false when the
// queue is empty.
//
// The firing event is not popped: it is recycled, its generation bumped
// before the callback as ever, and its slot left at the root as a hole
// while the callback runs. The first event the callback schedules — a
// timer re-arming itself, the MAC's next attempt, a frame's end — sinks
// from there, one sift instead of a pop's and a push's. The queue then
// holds exactly the entries a pop followed by that push would have left
// in it, and the order on keys is total, so events come out in the same
// order. While the hole is open nothing else is placed at the root: the
// first push closes it, and pop, peek and Pending close or discount it
// before they look.
func (k *Kernel) Step() bool {
	k.closeHole()
	for len(k.queue) > 0 {
		s := k.queue[0]
		ev := k.event(s.id)
		if ev.stale(s.seq) {
			k.settle(ev, s.id)
			continue
		}
		k.now = s.at
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		k.recycle(ev, s.id)
		k.hole = true
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		k.closeHole()
		return true
	}
	return false
}

// closeHole removes the fired event's slot if the callback left it
// open.
func (k *Kernel) closeHole() {
	if k.hole {
		k.hole = false
		k.pop()
	}
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
// however many times it was re-armed, and inside a callback the event
// being fired is not counted.
func (k *Kernel) Pending() int {
	if k.hole {
		return len(k.queue) - 1
	}
	return len(k.queue)
}

// peek returns the time of the earliest live event. Cancelled entries
// and entries whose due key moved past their position are settled on
// the way, so the answer is a due time, never a stale position.
func (k *Kernel) peek() (time.Duration, bool) {
	k.closeHole()
	for len(k.queue) > 0 {
		s := k.queue[0]
		ev := k.event(s.id)
		if ev.stale(s.seq) {
			k.settle(ev, s.id)
			continue
		}
		return s.at, true
	}
	return 0, false
}

// event is the body of one queue entry; its slot in the heap carries
// the position key (at, seq) the heap is ordered by, fixed while the
// entry is queued, and the event keeps a copy of the position time for
// Reset. (due, dueSeq) is when its callback runs. The two keys are
// equal unless Reset pushed the callback out in place, and position ≤
// due always holds, so when an entry with equal keys is the heap
// minimum no live callback anywhere in the queue is due before it.
//
// The callback is fn, or fnArg called with arg. The event has no flags:
// a cancelled one has dueSeq set to cancelled, and a fired one has
// already been recycled, its generation bumped, so the six words fill
// 48 bytes exactly.
type event struct {
	at     time.Duration
	due    time.Duration
	dueSeq uint64
	fn     func()
	fnArg  func(uint32)
	gen    uint32
	arg    uint32
}

// cancelled is the dueSeq of a cancelled event. Sequence numbers count
// up from zero, so no schedule ever reaches it.
const cancelled = ^uint64(0)

// slot is one heap element: the position key and the id of the event it
// stands for. It holds no pointer, so the collector neither scans the
// queue nor sees a write barrier on a sift — which is what a run short
// enough to spend much of its time in the mark phase was paying for.
type slot struct {
	at  time.Duration
	seq uint64
	id  uint32
}

// before orders slots by (time, insertion sequence) so equal-time
// events run FIFO and runs are deterministic. The order is total —
// sequence numbers are unique — so the pop order depends only on the
// set of keys queued, not on the heap's arity or on how an entry got
// to its place.
func (s *slot) before(t *slot) bool {
	if s.at != t.at {
		return s.at < t.at
	}
	return s.seq < t.seq
}

// eventHeap is a 4-ary min-heap of slots. Quad-ary beats binary here:
// the tree is half as deep, sift-down touches fewer cache lines, and
// the kernel pops exactly as many events as it pushes. The sift
// routines move a hole instead of swapping, and are inlined free of
// interface calls — container/heap was the top CPU cost of a 400-node
// run.
type eventHeap []slot

// push inserts s: into the hole a firing event left at the root if one
// is open, otherwise sifting up from a new leaf.
func (k *Kernel) push(s slot) {
	if k.hole {
		k.hole = false
		k.sink(s)
		return
	}
	// Appending in place stores the queue's pointer only when it grows;
	// assigning a local back would pay the write barrier on every push.
	k.queue = append(k.queue, s)
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
}

// pop removes the root, sifting the displaced last leaf down from it.
func (k *Kernel) pop() {
	n := len(k.queue) - 1
	last := k.queue[n]
	k.queue = k.queue[:n]
	if n > 0 {
		k.sink(last)
	}
}

// sink overwrites the root with s and sifts it down to its place.
func (k *Kernel) sink(s slot) {
	q := k.queue
	n := len(q)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = s
}

package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The window barrier. A lockstep window on a large grid is a handful of
// kernel events — microseconds of tile work — so the barrier that ends
// it may cost about one microsecond when every worker is running.
// The goroutine that calls RunUntil (the coordinator) is itself worker
// 0; it publishes the window's end, bumps one generation counter to
// release the other workers, runs its own tiles, and then reads each
// worker's arrival counter. Nobody blocks in the scheduler on the fast path: a
// waiter polls the counter it needs, then yields its processor between
// polls, and only after a bounded number of yields parks on a condition
// variable — so with fewer free processors than workers a wait costs a
// goroutine switch, never a spin against the very worker being waited
// for.

const (
	// spinIters is how many times a waiter polls before it first yields.
	// Small on purpose: a poll loop competes with the sibling hardware
	// thread for issue slots, and on one processor every poll is wasted,
	// so this covers only the cache-line round trip of a release or an
	// arrival that is already on its way.
	spinIters = 128
	// yieldIters bounds the runtime.Gosched phase before parking. A
	// yield with nothing else runnable returns in about 0.1 µs and is a
	// slower poll; with something runnable it hands the processor to
	// it. Parking and being woken costs tens of microseconds (two futex
	// calls and a thread wake-up, and the idle processor it leaves makes
	// the other workers' yields expensive), so a waiter yields for about
	// that long before it pays for a park: waits are typically a window's
	// imbalance, a few microseconds, and parking in 3 % of them made the
	// 60×60 run half as slow again (EXPERIMENTS.md).
	yieldIters = 512

	// cacheLine is the padding unit for the per-worker slots: two
	// 64-byte lines, so the adjacent-line prefetcher does not couple
	// neighbouring workers either.
	cacheLine = 128
)

// parker is where waiters that have exhausted their spin and yield
// budgets sleep. The sleeper count lets the waking side skip the mutex
// entirely when nobody is parked, which is every window on a host with
// a processor per worker.
type parker struct {
	mu       sync.Mutex
	cond     sync.Cond
	sleepers atomic.Int32
}

func (p *parker) init() { p.cond.L = &p.mu }

// await returns once v has reached want. Go's atomics are sequentially
// consistent, so of a waiter's (sleepers++, load v) and a waker's
// (store v, load sleepers) at least one side sees the other: either the
// waiter observes the new value and never sleeps, or the waker observes
// the sleeper and broadcasts under the mutex the waiter holds until it
// is on the condition's wait list.
func (p *parker) await(v *atomic.Uint64, want uint64) {
	for i := 0; i < spinIters; i++ {
		if v.Load() >= want {
			return
		}
	}
	for i := 0; i < yieldIters; i++ {
		runtime.Gosched()
		if v.Load() >= want {
			return
		}
	}
	p.mu.Lock()
	p.sleepers.Add(1)
	for v.Load() < want {
		p.cond.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// wake rouses parked waiters; call it after storing the value they
// wait for.
func (p *parker) wake() {
	if p.sleepers.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// workerSlot is one worker's side of the barrier, padded so no two
// workers' counters share a cache line.
type workerSlot struct {
	// done is the last generation whose tiles this worker finished; its
	// store publishes the fields below and every tile write of the round.
	done    atomic.Uint64
	elapsed time.Duration // wall time of that generation's tile work
	// tiles is the worker's tile list, in tile order, fixed by New.
	tiles []int
	// What the coordinator's serial section needs to know about the
	// worker's tiles, gathered by the worker while their kernels and
	// media are still in its cache: reading it costs the coordinator one
	// line per worker where scanning the tiles cost two or three per
	// tile, every window.
	nextAt time.Duration // earliest pending kernel event, -1 when none
	ghosts []int         // tiles whose outbox is not empty
	_      [cacheLine - 72]byte
}

// barrier is the engine's window barrier. It lives as long as the
// engine; the goroutines behind slots[1:] live for one RunUntil.
type barrier struct {
	// gen is the release generation. to (the time the round runs tiles
	// up to) and quit belong to the generation about to be released: the
	// coordinator writes them, then increments gen, and workers read
	// them only after seeing it.
	gen  atomic.Uint64
	to   time.Duration
	quit bool

	slots   []workerSlot // slots[0] is the coordinator's
	release parker       // workers waiting for gen
	arrive  parker       // the coordinator waiting for done
	exited  sync.WaitGroup
}

// workerCount resolves Config.Workers against the executor count and
// the processors the Go scheduler may use: more workers than either
// could only take turns.
func workerCount(workers, nExec int) int {
	procs := runtime.GOMAXPROCS(0)
	if workers == 0 {
		workers = procs
	}
	return max(1, min(workers, nExec, procs))
}

func newBarrier(workers int) *barrier {
	b := &barrier{slots: make([]workerSlot, workers)}
	b.release.init()
	b.arrive.init()
	return b
}

// startWorkers starts the goroutines behind slots[1:] for one RunUntil;
// the calling goroutine is worker 0, so one worker starts none. The
// returned stop releases them with quit set and waits until they have
// exited.
func (e *Engine) startWorkers() (stop func()) {
	b := e.bar
	if len(b.slots) == 1 {
		return func() {}
	}
	b.exited.Add(len(b.slots) - 1)
	for w := 1; w < len(b.slots); w++ {
		go e.work(&b.slots[w], b.gen.Load()+1)
	}
	return func() {
		b.quit = true
		b.gen.Add(1)
		b.release.wake()
		b.exited.Wait()
		b.quit = false
	}
}

// work is the body of workers 1..n-1: wait for a generation, run the
// slot's tiles, publish arrival.
func (e *Engine) work(s *workerSlot, gen uint64) {
	b := e.bar
	defer b.exited.Done()
	for ; ; gen++ {
		b.release.await(&b.gen, gen)
		if b.quit {
			return
		}
		e.runSlotTimed(s, b.to)
		s.done.Store(gen)
		b.arrive.wake()
	}
}

// runSlotTimed is runSlot plus the wall time the barrier-wait
// accounting needs; only rounds shared between workers pay for it.
func (e *Engine) runSlotTimed(s *workerSlot, to time.Duration) {
	start := time.Now()
	e.runSlot(s, to)
	s.elapsed = time.Since(start)
}

// runSlot runs the kernel of every tile in a worker's slot up to
// (exclusive) the next barrier, on that worker's goroutine, and leaves
// each clock parked exactly at the barrier; it accumulates the per-tile
// event counts the load reports read and records the slot's summary.
func (e *Engine) runSlot(s *workerSlot, to time.Duration) {
	s.nextAt, s.ghosts = -1, s.ghosts[:0]
	for _, ti := range s.tiles {
		sh := e.shards[ti]
		e.tileEvents[ti] += int64(sh.Kernel.RunBefore(to))
		sh.Kernel.AdvanceTo(to)
		if at, ok := sh.Kernel.NextEventAt(); ok && (s.nextAt < 0 || at < s.nextAt) {
			s.nextAt = at
		}
		if len(sh.Medium.Outbox()) > 0 {
			s.ghosts = append(s.ghosts, ti)
		}
	}
}

// workerOf maps an executor to the worker that owns it: contiguous
// blocks, fixed for the engine's lifetime, so a tile always runs on the
// same worker goroutine.
func (e *Engine) workerOf(exec int) int { return exec * len(e.bar.slots) / e.nExec }

// runRound has every worker run each of its tiles up to to and returns
// when all of them have — the barrier the whole lockstep design hangs
// on. With one worker it is a loop over the tiles on the calling
// goroutine.
func (e *Engine) runRound(to time.Duration) {
	b := e.bar
	if len(b.slots) == 1 {
		e.runSlot(&b.slots[0], to)
		return
	}
	b.to = to
	gen := b.gen.Add(1)
	b.release.wake()
	e.runSlotTimed(&b.slots[0], to)
	slowest := b.slots[0].elapsed
	for w := 1; w < len(b.slots); w++ {
		s := &b.slots[w]
		b.arrive.await(&s.done, gen)
		slowest = max(slowest, s.elapsed)
	}
	if e.onLoad == nil {
		return
	}
	// An executor's barrier wait is the slowest worker's time minus its
	// own worker's; executors sharing a worker report the same wait.
	for x := range e.execWaitNs {
		e.execWaitNs[x] += int64(slowest - b.slots[e.workerOf(x)].elapsed)
	}
}

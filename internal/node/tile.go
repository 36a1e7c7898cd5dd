package node

import (
	"sync"

	"mnp/internal/sim"
)

// A kernel event carries one uint32 argument, so the motes of a network
// share their kernel callbacks: a timer's argument is its mote's index
// shifted past timerBits, with the timer's ID in the low bits, and a
// CSMA step's argument is the mote's index.
const (
	timerBits = 8
	// MaxTimerID is the largest TimerID a Node arms; SetTimer panics on
	// a larger one.
	MaxTimerID TimerID = 1<<timerBits - 1
	// maxMotes bounds a Network: every mote's index must fit beside a
	// timer ID in an event's argument.
	maxMotes = 1 << (32 - timerBits)
)

// tile is what the motes of one network that run on one kernel share:
// the kernel callbacks behind their timers and CSMA MAC, each called
// with a mote's index, and the chunks their timer tables and MAC-queue
// slots are carved from. Only the worker running that kernel touches
// the chunks, so the tiles of an engine run never race; NewNetwork
// makes one per kernel (or takes one a released network handed back),
// New one per node.
type tile struct {
	timer, attempt, afterTx func(uint32)

	// timerLen is the widest timer table a mote of the tile has needed
	// so far. Tables are carved at least this wide, so the motes of a
	// protocol learn its IDs once per tile instead of each growing into
	// them.
	timerLen int
	timers   carver[sim.Timer]
	slots    carver[queuedFrame]
	bufs     carver[[slotBytes]byte]
}

// growTimers returns old widened to at least need entries, its pending
// timers kept.
func (t *tile) growTimers(old []sim.Timer, need int) []sim.Timer {
	t.timerLen = max(t.timerLen, need)
	s := t.timers.take(t.timerLen)
	copy(s, old)
	return s
}

// growQueue returns the full queue q with room for twice as many frames
// (4 at first, DefaultQueueCap at most), its frames and their buffers
// moved over.
func (t *tile) growQueue(q []queuedFrame) []queuedFrame {
	s := t.slots.take(min(max(2*cap(q), 4), DefaultQueueCap))
	return s[:copy(s, q)]
}

// frameBuf returns an empty buffer of slotBytes for a new MAC-queue
// slot.
func (t *tile) frameBuf() []byte { return t.bufs.take(1)[0][:0] }

// newTile returns a tile whose callbacks are timer, attempt and
// afterTx: one a released network handed back (release), its chunks
// rewound, or a new one.
func newTile(timer, attempt, afterTx func(uint32)) *tile {
	t, ok := tilePool.Get().(*tile)
	if !ok {
		t = new(tile)
	}
	t.timer, t.attempt, t.afterTx = timer, attempt, afterTx
	return t
}

// release zeroes every element the tile's motes were handed and hands
// the tile on for a later network, once no mote of it runs again.
func (t *tile) release() {
	t.timer, t.attempt, t.afterTx = nil, nil, nil
	t.timerLen = 0
	t.timers.rewind()
	t.slots.rewind()
	t.bufs.rewind()
	tilePool.Put(t)
}

// tilePool holds the tiles of released networks.
var tilePool sync.Pool

// Bounds on a carver's chunk, in elements.
const (
	minChunk = 16
	maxChunk = 1024
)

// carver hands out short slices of a chunk it owns, so the motes of a
// tile that each need a few elements share one allocation. The next
// chunk holds as many elements as were handed out so far, within
// [minChunk, maxChunk] (or the request, if larger), so a tile that
// serves few motes buys few, the way metrics.Collector carves radio
// intervals. A request larger than what is left of the chunk leaves
// the rest unused. A carver keeps every chunk it made: after rewind it
// hands them out again, in order, and makes a new one only once they
// are used up (skipping one too small for a request).
type carver[T any] struct {
	chunk  []T   // what is left of the chunk in use
	made   [][]T // every chunk made, in order
	used   int   // how many of made have been handed out from
	carved int
}

// take returns n zeroed elements, capacity n.
func (c *carver[T]) take(n int) []T {
	for len(c.chunk) < n {
		if c.used == len(c.made) {
			c.made = append(c.made, make([]T, max(n, min(max(c.carved, minChunk), maxChunk))))
		}
		c.chunk = c.made[c.used]
		c.used++
	}
	s := c.chunk[:n:n]
	c.chunk = c.chunk[n:]
	c.carved += n
	return s
}

// rewind zeroes the chunks handed out from and starts handing them out
// again from the first. No slice take returned may be used afterwards.
func (c *carver[T]) rewind() {
	for _, ch := range c.made[:c.used] {
		clear(ch)
	}
	c.chunk, c.used, c.carved = nil, 0, 0
}

// Package eeprom models the mote's external flash, where incoming code
// packets are buffered before reboot. Mica-2/XSM motes carry 512 KB.
//
// The store tracks write counts per packet slot so tests can assert the
// paper's invariant: "we guarantee that each packet in a segment is
// written to EEPROM only once."
//
// Read lends: it returns a view into the store's memory, and the store
// never again writes a byte it has lent, so a view keeps reading what
// it read when taken for as long as anyone holds it. Release ends every
// loan at once: it hands the store's slabs on for a later store to
// reuse, which is why only a finished run calls it.
package eeprom

import (
	"bytes"
	"fmt"
	"sync"
)

// DefaultCapacity is the Mica-2/XSM external flash size in bytes.
const DefaultCapacity = 512 * 1024

// minRowSlots is the smallest slot count a segment row is built with.
const minRowSlots = 16

// slot is one (segment, packet) cell: n payload bytes at the slot's
// stride offset in the row's slab. Every write counts, so writes > 0
// tells an empty payload from an unwritten slot, and a slot is 8 bytes.
type slot struct {
	n, writes int32
}

// present reports whether the slot has been written.
func (sl *slot) present() bool { return sl.writes > 0 }

// segRow is one segment: every payload in one slab, slot i at
// data[i*stride:]. The stride is the longest payload the row has seen,
// learned from its first write. Views handed out by Read point into
// data, so bytes of a present slot are never overwritten in place; a
// write that would have to (a differing rewrite) or cannot fit (a
// longer payload, a packet index past the slab) moves the row to a
// fresh slab and leaves the old one to whoever still reads it.
type segRow struct {
	data   []byte
	stride int
	slots  []slot
	// mem is the holder the row's first slab came in from rowPool, nil
	// when the pool was empty. Release puts the row back in it, so a
	// recycled row boxes nothing.
	mem *rowMem
}

// rowMem carries one released row's slab and slot array through
// rowPool to the next store's row. It is empty while a row owns it.
type rowMem struct {
	data  []byte
	slots []slot
}

// rowPool holds the rows of released stores: a campaign's cells build
// the same 128-packet rows mote after mote, cell after cell.
var rowPool sync.Pool

// Store is a per-node packet store keyed by (segment, packet). It is
// not safe for concurrent use; in the DES a node owns its store. Views
// returned by Read may be read from any goroutine while the owner keeps
// writing, up to Release.
//
// Slots live in dense per-segment rows rather than a map: segment and
// packet IDs are small (MNP caps a segment at 128 packets), and the
// store sits on the simulator's per-delivery hot path, where hashing a
// key per write was measurable across millions of events.
type Store struct {
	capacity int
	used     int
	count    int
	segs     []segRow // indexed by segment ID, rows built on first write

	// writeFault, when set, is consulted before each write; a non-nil
	// error fails the write with no state change (the flash driver
	// detected a bad page program). Fault injection installs it.
	writeFault func(seg, pkt int) error
	faults     int
}

// New returns a store with the given capacity in bytes.
func New(capacity int) (*Store, error) {
	s := new(Store)
	if err := s.Init(capacity); err != nil {
		return nil, err
	}
	return s, nil
}

// Init makes s an empty store with the given capacity in bytes, for a
// store held by value (a mote carved from a network's slab embeds its
// own).
func (s *Store) Init(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("eeprom: capacity %d must be positive", capacity)
	}
	*s = Store{capacity: capacity}
	return nil
}

// at returns the slot for (seg, pkt), or nil if it was never written.
func (s *Store) at(seg, pkt int) *slot {
	if seg < 0 || seg >= len(s.segs) || pkt < 0 || pkt >= len(s.segs[seg].slots) {
		return nil
	}
	sl := &s.segs[seg].slots[pkt]
	if !sl.present() {
		return nil
	}
	return sl
}

// payload returns the bytes of slot i, clipped so that an append by the
// borrower cannot reach the next slot.
func (r *segRow) payload(i int) []byte {
	off := i * r.stride
	end := off + int(r.slots[i].n)
	return r.data[off:end:end]
}

// reshape moves the row to a fresh slab of nSlots slots of the given
// stride, neither smaller than the row's own. A row's first slab and
// slot array come from rowPool when a released row there is big enough,
// cleared, so nothing a released store held is ever read. The old slab
// is never put back: it may be on loan.
func (r *segRow) reshape(nSlots, stride int) {
	var reuse rowMem
	if r.mem == nil {
		if m, ok := rowPool.Get().(*rowMem); ok {
			reuse, r.mem = *m, m
			*m = rowMem{}
		}
	}
	data := reuseOrMake(reuse.data, nSlots*stride)
	for i := range r.slots {
		if r.slots[i].present() {
			copy(data[i*stride:], r.payload(i))
		}
	}
	if nSlots > len(r.slots) {
		slots := reuseOrMake(reuse.slots, nSlots)
		copy(slots, r.slots)
		r.slots = slots
	}
	r.data, r.stride = data, stride
}

// reuseOrMake returns buf cleared and cut to n elements when its
// capacity allows, else a fresh slice of n.
func reuseOrMake[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Write stores the payload for packet pkt of segment seg (copying it)
// when the segment's packet count is not known: a row the packet does
// not fit grows by doubling from minRowSlots. Rewriting an occupied
// slot is permitted — the protocol is supposed to avoid it, and
// WriteCount exposes violations.
func (s *Store) Write(seg, pkt int, payload []byte) error {
	return s.WriteSized(seg, pkt, 0, payload)
}

// WriteSized is Write for a segment of segPackets packets: a row built
// or moved for this write is carved at that many slots, so filling the
// segment copies its slab once instead of once per doubling. A count
// that does not cover pkt is ignored.
func (s *Store) WriteSized(seg, pkt, segPackets int, payload []byte) error {
	if seg < 1 || pkt < 0 {
		return fmt.Errorf("eeprom: invalid slot (%d,%d)", seg, pkt)
	}
	if s.writeFault != nil {
		if err := s.writeFault(seg, pkt); err != nil {
			s.faults++
			return err
		}
	}
	for seg >= len(s.segs) {
		s.segs = append(s.segs, segRow{})
	}
	row := &s.segs[seg]
	occupied := pkt < len(row.slots) && row.slots[pkt].present()
	prev := 0
	if occupied {
		prev = int(row.slots[pkt].n)
	}
	if s.used-prev+len(payload) > s.capacity {
		return fmt.Errorf("eeprom: capacity exceeded (%d + %d > %d)", s.used-prev, len(payload), s.capacity)
	}
	if occupied && bytes.Equal(row.payload(pkt), payload) {
		row.slots[pkt].writes++
		return nil
	}
	// An occupied slot's bytes may be on loan, so a differing rewrite
	// goes to a fresh slab like a payload or index the slab cannot hold.
	if occupied || pkt >= len(row.slots) || len(payload) > row.stride {
		nSlots := max(len(row.slots), minRowSlots)
		if pkt < segPackets {
			nSlots = max(len(row.slots), segPackets)
		}
		for pkt >= nSlots {
			nSlots *= 2
		}
		row.reshape(nSlots, max(row.stride, len(payload)))
	}
	sl := &row.slots[pkt]
	copy(row.data[pkt*row.stride:], payload)
	s.used += len(payload) - prev
	if !sl.present() {
		s.count++
	}
	sl.n = int32(len(payload))
	sl.writes++
	return nil
}

// Read returns the payload stored for (seg, pkt) as a read-only view
// into the store, or nil if the slot is empty or holds an empty
// payload. The view stays valid and unchanged through any later Write,
// EraseSegment or Erase; appending to it reallocates.
func (s *Store) Read(seg, pkt int) []byte {
	sl := s.at(seg, pkt)
	if sl == nil || sl.n == 0 {
		return nil
	}
	return s.segs[seg].payload(pkt)
}

// Has reports whether the slot has been written.
func (s *Store) Has(seg, pkt int) bool {
	return s.at(seg, pkt) != nil
}

// WriteCount returns the number of times (seg, pkt) has been written.
func (s *Store) WriteCount(seg, pkt int) int {
	sl := s.at(seg, pkt)
	if sl == nil {
		return 0
	}
	return int(sl.writes)
}

// MaxWriteCount returns the largest write count over all slots; 1 means
// the write-once invariant held.
func (s *Store) MaxWriteCount() int {
	maxC := int32(0)
	for i := range s.segs {
		for _, sl := range s.segs[i].slots {
			if sl.writes > maxC {
				maxC = sl.writes
			}
		}
	}
	return int(maxC)
}

// SetWriteFault installs (or, with nil, removes) a write-fault
// injector. A successful retry after a failed write still counts as
// the slot's first write.
func (s *Store) SetWriteFault(f func(seg, pkt int) error) { s.writeFault = f }

// FaultCount returns how many writes the injected fault rejected.
func (s *Store) FaultCount() int { return s.faults }

// Used returns the number of bytes stored.
func (s *Store) Used() int { return s.used }

// Slots returns the number of occupied slots.
func (s *Store) Slots() int { return s.count }

// Erase drops all contents and counters, as the fail state does when a
// node "releases EEPROM resource". Slabs still on loan are left to
// their readers.
func (s *Store) Erase() {
	s.segs = nil
	s.used = 0
	s.count = 0
}

// Release empties the store as Erase does and hands its slabs and slot
// arrays on, through a package pool, for a later store's rows to reuse.
// It ends every loan: no view an earlier Read returned may be read
// after it, which is why only a run that is over calls it.
func (s *Store) Release() {
	for i := range s.segs {
		r := &s.segs[i]
		if r.data == nil && r.slots == nil {
			continue
		}
		m := r.mem
		if m == nil {
			m = new(rowMem)
		}
		m.data, m.slots = r.data, r.slots
		rowPool.Put(m)
	}
	s.Erase()
}

// EraseSegment drops the contents of one segment only.
func (s *Store) EraseSegment(seg int) {
	if seg < 0 || seg >= len(s.segs) {
		return
	}
	for _, sl := range s.segs[seg].slots {
		if sl.present() {
			s.used -= int(sl.n)
			s.count--
		}
	}
	s.segs[seg] = segRow{}
}

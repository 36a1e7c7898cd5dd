package eeprom

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"
)

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%d) accepted", c)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4}
	if err := s.Write(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	if !s.Has(1, 0) {
		t.Fatal("Has = false after write")
	}
	got := s.Read(1, 0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("Read = %v, want %v", got, payload)
	}
	if s.Read(1, 1) != nil {
		t.Fatal("empty slot returned data")
	}
	if s.Has(2, 0) {
		t.Fatal("Has = true for empty slot")
	}
	if s.Used() != 4 || s.Slots() != 1 {
		t.Fatalf("Used=%d Slots=%d", s.Used(), s.Slots())
	}
}

// The loan contract: Write copies the caller's buffer, and a view Read
// has handed out keeps its bytes through everything the store does
// afterwards.
func TestWriteCopiesPayload(t *testing.T) {
	s, _ := New(1024)
	payload := []byte{9, 9}
	if err := s.Write(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 0
	view := s.Read(1, 0)
	if view[0] != 9 {
		t.Fatal("Write aliased caller's buffer")
	}
	if cap(view) != len(view) {
		t.Fatalf("view has capacity %d beyond its %d bytes: an append would reach the next slot", cap(view), len(view))
	}
	want := []byte{9, 9}
	steps := []struct {
		name string
		do   func()
		now  []byte // what a fresh Read returns afterwards
	}{
		{"a write to the next slot", func() { _ = s.Write(1, 1, []byte{5, 5}) }, want},
		{"an equal rewrite", func() { _ = s.Write(1, 0, []byte{9, 9}) }, want},
		{"a differing rewrite", func() { _ = s.Write(1, 0, []byte{1, 2}) }, []byte{1, 2}},
		{"a longer payload reshaping the row", func() { _ = s.Write(1, 2, []byte{3, 3, 3, 3}) }, []byte{1, 2}},
		{"a packet index past the slab", func() { _ = s.Write(1, 500, []byte{4}) }, []byte{1, 2}},
		{"EraseSegment", func() { s.EraseSegment(1) }, nil},
		{"a write after the erase", func() { _ = s.Write(1, 0, []byte{7, 7}) }, []byte{7, 7}},
		{"Erase", func() { s.Erase() }, nil},
	}
	for _, st := range steps {
		st.do()
		if !bytes.Equal(view, want) {
			t.Fatalf("view read %v after %s, lent as %v", view, st.name, want)
		}
		if got := s.Read(1, 0); !bytes.Equal(got, st.now) {
			t.Fatalf("Read = %v after %s, want %v", got, st.name, st.now)
		}
	}
}

func TestWriteCountTracksRewrites(t *testing.T) {
	s, _ := New(1024)
	if s.WriteCount(1, 0) != 0 {
		t.Fatal("fresh slot has writes")
	}
	_ = s.Write(1, 0, []byte{1})
	_ = s.Write(1, 1, []byte{2})
	_ = s.Write(1, 0, []byte{3})
	if got := s.WriteCount(1, 0); got != 2 {
		t.Fatalf("WriteCount(1,0) = %d, want 2", got)
	}
	if got := s.MaxWriteCount(); got != 2 {
		t.Fatalf("MaxWriteCount = %d, want 2", got)
	}
	// Rewrite replaces, not accumulates, storage.
	if s.Used() != 2 {
		t.Fatalf("Used = %d, want 2", s.Used())
	}
	if got := s.Read(1, 0); !bytes.Equal(got, []byte{3}) {
		t.Fatalf("rewrite not visible: %v", got)
	}
}

func TestCapacityEnforced(t *testing.T) {
	s, _ := New(10)
	if err := s.Write(1, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, 1, make([]byte, 4)); err == nil {
		t.Fatal("over-capacity write accepted")
	}
	// Rewriting the existing slot with same size is fine.
	if err := s.Write(1, 0, make([]byte, 10)); err != nil {
		t.Fatalf("rewrite within capacity rejected: %v", err)
	}
}

func TestInvalidSlots(t *testing.T) {
	s, _ := New(10)
	if err := s.Write(0, 0, []byte{1}); err == nil {
		t.Fatal("segment 0 accepted")
	}
	if err := s.Write(1, -1, []byte{1}); err == nil {
		t.Fatal("negative packet accepted")
	}
}

func TestErase(t *testing.T) {
	s, _ := New(1024)
	_ = s.Write(1, 0, []byte{1})
	_ = s.Write(2, 0, []byte{2, 2})
	s.EraseSegment(1)
	if s.Has(1, 0) {
		t.Fatal("segment 1 survived EraseSegment")
	}
	if !s.Has(2, 0) {
		t.Fatal("segment 2 erased by EraseSegment(1)")
	}
	if s.Used() != 2 {
		t.Fatalf("Used = %d after partial erase", s.Used())
	}
	s.Erase()
	if s.Used() != 0 || s.Slots() != 0 || s.MaxWriteCount() != 0 {
		t.Fatal("Erase left state behind")
	}
}

// refStore is the store as it was before the slab — one heap slice per
// slot, Read copying out — kept as the reference model.
type refStore struct {
	capacity, used, count, faults int
	segs                          [][]refSlot
	writeFault                    func(seg, pkt int) error
}

type refSlot struct {
	data    []byte
	writes  int
	present bool
}

func (s *refStore) at(seg, pkt int) *refSlot {
	if seg < 0 || seg >= len(s.segs) || pkt < 0 || pkt >= len(s.segs[seg]) || !s.segs[seg][pkt].present {
		return nil
	}
	return &s.segs[seg][pkt]
}

func (s *refStore) Write(seg, pkt int, payload []byte) error {
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
		s.segs = append(s.segs, nil)
	}
	row := s.segs[seg]
	for pkt >= len(row) {
		row = append(row, refSlot{})
	}
	s.segs[seg] = row
	sl := &row[pkt]
	prev := len(sl.data)
	if s.used-prev+len(payload) > s.capacity {
		return fmt.Errorf("eeprom: capacity exceeded (%d + %d > %d)", s.used-prev, len(payload), s.capacity)
	}
	s.used += len(payload) - prev
	sl.data = append(sl.data[:0], payload...)
	sl.writes++
	if !sl.present {
		sl.present = true
		s.count++
	}
	return nil
}

func (s *refStore) Read(seg, pkt int) []byte {
	sl := s.at(seg, pkt)
	if sl == nil {
		return nil
	}
	return append([]byte(nil), sl.data...)
}

func (s *refStore) WriteCount(seg, pkt int) int {
	sl := s.at(seg, pkt)
	if sl == nil {
		return 0
	}
	return sl.writes
}

func (s *refStore) MaxWriteCount() int {
	maxC := 0
	for _, row := range s.segs {
		for i := range row {
			if row[i].present && row[i].writes > maxC {
				maxC = row[i].writes
			}
		}
	}
	return maxC
}

func (s *refStore) Erase() { s.segs, s.used, s.count = nil, 0, 0 }

func (s *refStore) EraseSegment(seg int) {
	if seg < 0 || seg >= len(s.segs) {
		return
	}
	for _, sl := range s.segs[seg] {
		if sl.present {
			s.used -= len(sl.data)
			s.count--
		}
	}
	s.segs[seg] = nil
}

// scriptPkts are the packet indexes a script writes: a dense run, both
// sides of every doubling of a 16-slot row, and sparse outliers.
var scriptPkts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 17, 31, 32, 63, 64, 127, 128, 300}

// scriptCounts are the segment sizes a script's writes declare: none,
// smaller than the packet indexes, and sizes a row is carved at.
var scriptCounts = []int{0, 1, 8, 48, 128, 200}

const (
	scriptSegs     = 4 // writes go to segments 1..4, probes to 0..5
	scriptCapacity = 400
)

// loan is a view Read returned, with the bytes it showed when taken.
type loan struct{ view, snapshot []byte }

// runStoreScript interprets data as a sequence of store operations —
// writes of new slots, rewrites with the same, different, longer,
// shorter and empty payloads, out-of-order and sparse packet ids,
// invalid slots, writes an injected fault rejects, writes the capacity
// rejects, EraseSegment and Erase — applied to a Store and a refStore
// alike. After every operation every getter agrees on every probed
// slot; at the end every view the Store ever lent still reads what it
// read when it was lent.
func runStoreScript(t *testing.T, data []byte) {
	t.Helper()
	s, err := New(scriptCapacity)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refStore{capacity: scriptCapacity}
	probes := append([]int{-1, 12}, scriptPkts...) // an invalid and a never-written index too
	var loans []loan
	last := map[[2]int][]byte{} // the newest view of each slot, to hold each loan once

	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// The declared segment size shapes the slab, never the contents,
	// so the reference ignores it.
	write := func(step int, seg, pkt int, payload []byte) {
		count := scriptCounts[(step+seg)%len(scriptCounts)]
		got, want := s.WriteSized(seg, pkt, count, payload), ref.Write(seg, pkt, payload)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("step %d: WriteSized(%d,%d,%d,%v) = %v, reference %v", step, seg, pkt, count, payload, got, want)
		}
	}
	for step := 0; len(data) > 0; step++ {
		op, a, b := next(), next(), next()
		seg, pkt := 1+a%scriptSegs, scriptPkts[b%len(scriptPkts)]
		switch op % 10 {
		case 0, 1, 2, 3: // a payload of 0..31 bytes, usually 22
			n := 22
			if v := next(); v%4 == 0 {
				n = v / 4 % 32
			}
			payload := make([]byte, n)
			fill := next()
			for i := range payload {
				payload[i] = byte(fill + 7*i)
			}
			write(step, seg, pkt, payload)
		case 4: // the same bytes again
			write(step, seg, pkt, ref.Read(seg, pkt))
		case 5: // different bytes: same length, longer, shorter, empty
			old := ref.Read(seg, pkt)
			switch v := next(); v % 4 {
			case 0:
				if len(old) > 0 {
					old[v/4%len(old)] ^= 0x55
				}
			case 1:
				old = append(old, make([]byte, 1+v/4%6)...)
			case 2:
				old = old[:len(old)/2]
			case 3:
				old = old[:0]
			}
			write(step, seg, pkt, old)
		case 6: // no fault, a fault on a third of the slots, a fault on all
			var f func(seg, pkt int) error
			if mode := a % 3; mode > 0 {
				f = func(seg, pkt int) error {
					if mode == 2 || (seg*31+pkt)%3 == 0 {
						return fmt.Errorf("injected fault at (%d,%d)", seg, pkt)
					}
					return nil
				}
			}
			s.SetWriteFault(f)
			ref.writeFault = f
		case 7:
			s.EraseSegment(a % (scriptSegs + 2))
			ref.EraseSegment(a % (scriptSegs + 2))
		case 8:
			if b%4 == 0 {
				s.Erase()
				ref.Erase()
			}
		case 9:
			write(step, a%2, pkt-b%2*(pkt+1), []byte{1}) // half in segment 0, half at packet -1
		}

		if s.Used() != ref.used || s.Slots() != ref.count || s.FaultCount() != ref.faults || s.MaxWriteCount() != ref.MaxWriteCount() {
			t.Fatalf("step %d: Used %d Slots %d FaultCount %d MaxWriteCount %d, reference %d %d %d %d", step,
				s.Used(), s.Slots(), s.FaultCount(), s.MaxWriteCount(), ref.used, ref.count, ref.faults, ref.MaxWriteCount())
		}
		for seg := 0; seg < scriptSegs+2; seg++ {
			for _, pkt := range probes {
				if got, want := s.Has(seg, pkt), ref.at(seg, pkt) != nil; got != want {
					t.Fatalf("step %d: Has(%d,%d) = %v, reference %v", step, seg, pkt, got, want)
				}
				if got, want := s.WriteCount(seg, pkt), ref.WriteCount(seg, pkt); got != want {
					t.Fatalf("step %d: WriteCount(%d,%d) = %d, reference %d", step, seg, pkt, got, want)
				}
				got, want := s.Read(seg, pkt), ref.Read(seg, pkt)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("step %d: Read(%d,%d) = %v, reference %v", step, seg, pkt, got, want)
				}
				key := [2]int{seg, pkt}
				if prev := last[key]; got != nil && (prev == nil || &prev[0] != &got[0] || len(prev) != len(got)) {
					last[key] = got
					loans = append(loans, loan{view: got, snapshot: want})
				}
			}
		}
	}
	for i, l := range loans {
		if !bytes.Equal(l.view, l.snapshot) {
			t.Fatalf("loan %d of %d reads %v, lent as %v", i, len(loans), l.view, l.snapshot)
		}
	}
}

func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		script := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(script)
		runStoreScript(t, script)
	}
}

func FuzzStoreOps(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		script := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runStoreScript(t, script)
	})
}

// The data path buys nothing per packet: a read is a view, and a write
// lands in the segment's slab once the row has its size.
func TestStoreAllocations(t *testing.T) {
	s, _ := New(DefaultCapacity)
	payload := make([]byte, 22)
	if err := s.Write(1, 127, payload); err != nil {
		t.Fatal(err)
	}
	pkt := 0
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Write(1, pkt, payload); err != nil {
			t.Fatal(err)
		}
		pkt++
	}); n != 0 {
		t.Errorf("Write into a grown row: %v allocs, want 0", n)
	}
	var sink []byte
	if n := testing.AllocsPerRun(100, func() { sink = s.Read(1, 127) }); n != 0 {
		t.Errorf("Read: %v allocs, want 0", n)
	}
	_ = sink

	// A segment whose size is declared is carved once: filling 128
	// packets in order buys its slab and slot table a single time, where
	// a row growing from 16 slots buys both again at 32, 64 and 128.
	fill := func(count int) float64 {
		return testing.AllocsPerRun(10, func() {
			s, _ := New(DefaultCapacity)
			for pkt := 0; pkt < 128; pkt++ {
				if err := s.WriteSized(1, pkt, count, payload); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if sized, grown := fill(128), fill(0); grown-sized != 6 {
		t.Errorf("filling a 128-packet segment: %v allocs declared, %v grown; want 6 fewer declared", sized, grown)
	}
	// A slot's bookkeeping is a third of a 22-byte payload's slab room.
	if size := unsafe.Sizeof(slot{}); size != 8 {
		t.Errorf("a slot is %d bytes, want 8", size)
	}
}

// A lent view may be read from another goroutine while the owner keeps
// using its store. Run under -race: the owner never writes a byte the
// view covers.
func TestLentViewReadConcurrently(t *testing.T) {
	s, _ := New(DefaultCapacity)
	want := bytes.Repeat([]byte{0xA5}, 22)
	if err := s.Write(1, 0, want); err != nil {
		t.Fatal(err)
	}
	view := s.Read(1, 0)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if !bytes.Equal(view, want) {
				t.Error("lent view changed under the reader")
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	other := bytes.Repeat([]byte{0x5A}, 22)
	for i := 0; i < 2000; i++ {
		_ = s.Write(1, 1+i%300, other)      // other slots, growing the row
		_ = s.Write(1, 0, want)             // the lent slot, equal bytes
		_ = s.Write(2, i%8, other[:1+i%22]) // another segment, reshaping by length
		switch i % 500 {
		case 200:
			_ = s.Write(1, 0, other) // differing rewrite: the row moves, the view stays
			_ = s.Write(1, 0, want)
		case 400:
			s.EraseSegment(1)
			_ = s.Write(1, 0, want)
		}
	}
	s.Erase()
	close(stop)
	<-done
}

// releaseStale fills segments 1..scriptSegs of a store with 31-byte
// payloads, each written twice, in rows carved past every slot a script
// probes, and releases it: the next store's rows take slabs and slot
// arrays full of stale bytes and write counts. It returns the first
// byte of every released slab.
func releaseStale(t *testing.T) map[*byte]bool {
	t.Helper()
	s, _ := New(DefaultCapacity)
	stale := bytes.Repeat([]byte{0xEE}, 31)
	for seg := 1; seg <= scriptSegs; seg++ {
		for _, pkt := range scriptPkts {
			for range 2 {
				if err := s.WriteSized(seg, pkt, 512, stale); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	slabs := map[*byte]bool{}
	for _, r := range s.segs[1:] {
		slabs[&r.data[0]] = true
	}
	s.Release()
	if s.Used() != 0 || s.Slots() != 0 || s.MaxWriteCount() != 0 || s.Has(1, 0) {
		t.Fatal("Release left state behind")
	}
	return slabs
}

// drainRows empties rowPool, so what one test released does not change
// the allocation counts of the next.
func drainRows() {
	for rowPool.Get() != nil {
	}
}

// A store built after another's Release takes the released rows,
// cleared: a short payload over a longer stale one reads short, an
// unwritten slot reads empty, and write counts start over.
func TestReleasedRowsReadFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the pool keeps what Release put
	t.Cleanup(drainRows)
	// Enough rows go back that the race detector's random drops of
	// pooled items cannot take them all.
	slabs := map[*byte]bool{}
	for range 4 {
		for p := range releaseStale(t) {
			slabs[p] = true
		}
	}
	s, _ := New(DefaultCapacity)
	short := []byte{1, 2, 3}
	if err := s.WriteSized(1, 5, 128, short); err != nil {
		t.Fatal(err)
	}
	if !slabs[&s.segs[1].data[0]] {
		t.Fatal("the row was not carved from a released slab")
	}
	if got := s.Read(1, 5); !bytes.Equal(got, short) || cap(got) != len(short) {
		t.Errorf("Read(1,5) = %v (cap %d), want %v", got, cap(got), short)
	}
	if s.Has(1, 6) || s.Read(1, 6) != nil || s.WriteCount(1, 6) != 0 {
		t.Errorf("unwritten slot (1,6): Has %v Read %v WriteCount %d", s.Has(1, 6), s.Read(1, 6), s.WriteCount(1, 6))
	}
	if s.WriteCount(1, 5) != 1 || s.MaxWriteCount() != 1 || s.Used() != 3 || s.Slots() != 1 {
		t.Errorf("WriteCount %d MaxWriteCount %d Used %d Slots %d, want 1 1 3 1",
			s.WriteCount(1, 5), s.MaxWriteCount(), s.Used(), s.Slots())
	}
}

// The model script holds on stores whose rows come from released ones.
func TestStoreMatchesReferenceAfterRelease(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t.Cleanup(drainRows)
	for seed := int64(1); seed <= 40; seed++ {
		releaseStale(t)
		script := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(script)
		runStoreScript(t, script)
	}
}

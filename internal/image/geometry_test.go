package image

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"mnp/internal/bitvec"
)

func TestNewGeometryRejectsInconsistentTriples(t *testing.T) {
	for _, c := range []struct {
		units, unit, total int
		ok                 bool
	}{
		{3, 48, 128, true},
		{1, 128, 128, true},
		{2, 128, 129, true},
		{2, 128, 128, false}, // one unit too many
		{1, 128, 129, false}, // one unit too few
		{0, 48, 128, false},
		{1, 0, 128, false},
		{1, 48, 0, false},
		{0, 0, 0, false},
		{255, 1, 65535, false},
	} {
		g, err := NewGeometry(c.units, c.unit, c.total)
		if (err == nil) != c.ok {
			t.Errorf("NewGeometry(%d, %d, %d): err %v, want ok %v", c.units, c.unit, c.total, err, c.ok)
		}
		if err != nil && g != (Geometry{}) {
			t.Errorf("NewGeometry(%d, %d, %d) rejected but returned %+v", c.units, c.unit, c.total, g)
		}
	}
	if _, err := Split(10, 0); err == nil {
		t.Error("Split into 0-packet units accepted")
	}
}

func TestGeometrySlotsCoverEveryPacketOnce(t *testing.T) {
	g, err := Split(300, 48) // 6 full pages and a 12-packet tail
	if err != nil {
		t.Fatal(err)
	}
	if g.Units() != 7 || g.Unit() != 48 || g.Total() != 300 {
		t.Fatalf("geometry %+v", g)
	}
	for u, want := range map[int]int{0: 0, 1: 48, 6: 48, 7: 12, 8: 0} {
		if got := g.PacketsIn(u); got != want {
			t.Errorf("PacketsIn(%d) = %d, want %d", u, got, want)
		}
	}
	seq := 0
	for u := 1; u <= g.Units(); u++ {
		for pkt := 0; pkt < g.PacketsIn(u); pkt++ {
			if gu, gp := g.Slot(seq); gu != u || gp != pkt {
				t.Fatalf("Slot(%d) = (%d,%d), want (%d,%d)", seq, gu, gp, u, pkt)
			}
			if got := g.Seq(u, pkt); got != seq {
				t.Fatalf("Seq(%d,%d) = %d, want %d", u, pkt, got, seq)
			}
			seq++
		}
	}
	if seq != g.Total() {
		t.Fatalf("units hold %d packets, want %d", seq, g.Total())
	}
	var zero Geometry
	if zero.Units() != 0 || zero.PacketsIn(1) != 0 {
		t.Fatal("zero geometry has units")
	}
}

// flash is a map-backed Flash that counts writes per slot.
type flash struct {
	slots  map[[2]int][]byte
	writes map[[2]int]int
	fail   error
}

func newFlash() *flash {
	return &flash{slots: map[[2]int][]byte{}, writes: map[[2]int]int{}}
}

func (f *flash) HasPacket(seg, pkt int) bool { return f.slots[[2]int{seg, pkt}] != nil }

func (f *flash) Store(seg, pkt, _ int, payload []byte) error {
	if f.fail != nil {
		return f.fail
	}
	f.slots[[2]int{seg, pkt}] = append([]byte(nil), payload...)
	f.writes[[2]int{seg, pkt}]++
	return nil
}

func TestPreloadThroughAnyGeometryReassembles(t *testing.T) {
	im, err := New(1, bytes.Repeat([]byte{1, 2, 3, 4, 5}, 61), WithPayloadSize(7)) // 44 packets, short tail
	if err != nil {
		t.Fatal(err)
	}
	pages, err := Split(im.TotalPackets(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Geometry{im.Geometry(), pages} {
		f := newFlash()
		if err := Preload(f, im, g); err != nil {
			t.Fatal(err)
		}
		got, err := im.Reassemble(g, func(u, pkt int) []byte { return f.slots[[2]int{u, pkt}] })
		if err != nil || !im.Verify(got) {
			t.Fatalf("%+v: reassembly %v, verifies %v", g, err, im.Verify(got))
		}
	}
}

func TestPreloadSkipsHeldSlots(t *testing.T) {
	im, err := Random(1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := newFlash()
	for range 2 { // a base that reboots keeps its flash
		if err := Preload(f, im, im.Geometry()); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.writes) != im.TotalPackets() {
		t.Fatalf("%d slots written, want %d", len(f.writes), im.TotalPackets())
	}
	for slot, w := range f.writes {
		if w != 1 {
			t.Fatalf("slot %v written %d times", slot, w)
		}
	}
}

func TestPreloadReturnsStoreError(t *testing.T) {
	im, err := Random(1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	full := errors.New("flash full")
	f := newFlash()
	f.fail = full
	if err := Preload(f, im, im.Geometry()); !errors.Is(err, full) {
		t.Fatalf("Preload = %v, want %v", err, full)
	}
	other, err := Split(im.TotalPackets()+1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := Preload(newFlash(), im, other); err == nil {
		t.Fatal("geometry of another image accepted")
	}
	if _, err := im.Reassemble(other, func(int, int) []byte { return nil }); err == nil {
		t.Fatal("Reassemble accepted the geometry of another image")
	}
}

func TestResumeReadsWhatFlashHolds(t *testing.T) {
	span := func(lo, hi int) []int { // flat slots lo..hi-1
		var s []int
		for seq := lo; seq < hi; seq++ {
			s = append(s, seq)
		}
		return s
	}
	for _, c := range []struct {
		name        string
		total, unit int
		stored      []int // flat slots the flash holds
		flat        bool  // pass held, as MOAP and XNP do
		whole       int
		missing     []int // packets of unit whole+1 still missing; nil for no vector
	}{
		{name: "empty", total: 256, unit: 128},
		{name: "part-of-unit-1", total: 256, unit: 128, stored: []int{0, 5, 127},
			missing: slices.DeleteFunc(span(0, 128), func(p int) bool { return p == 0 || p == 5 || p == 127 })},
		{name: "whole-units-and-part", total: 384, unit: 128, stored: append(span(0, 256), 256+3),
			whole: 2, missing: slices.DeleteFunc(span(0, 128), func(p int) bool { return p == 3 })},
		{name: "every-unit", total: 384, unit: 128, stored: span(0, 384), whole: 3},
		{name: "short-last-unit", total: 300, unit: 128, stored: span(0, 299), whole: 2, missing: []int{43}},
		{name: "deluge-pages", total: 300, unit: 48, stored: span(0, 100), whole: 2, missing: span(4, 48)},
		{name: "flat-scattered", total: 300, unit: 128, stored: []int{1, 127, 128, 299}, flat: true,
			missing: slices.DeleteFunc(span(0, 128), func(p int) bool { return p == 1 || p == 127 })},
		// A unit wider than a vector has whole units counted but no vector.
		{name: "wider-than-a-vector", total: 400, unit: bitvec.MaxBits + 72, stored: span(0, 210), whole: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := Split(c.total, c.unit)
			if err != nil {
				t.Fatal(err)
			}
			f := newFlash()
			for _, seq := range c.stored {
				u, pkt := g.Slot(seq)
				f.slots[[2]int{u, pkt}] = []byte{1}
			}
			var held []bool
			if c.flat {
				held = make([]bool, g.Total())
			}
			whole, missing, n := Resume(f, g, held)
			if whole != c.whole {
				t.Errorf("whole = %d, want %d", whole, c.whole)
			}
			switch {
			case c.missing == nil && missing != nil:
				t.Errorf("missing = %v, want nil", missing.Indices())
			case c.missing != nil && missing == nil:
				t.Errorf("missing = nil, want %v", c.missing)
			case c.missing != nil && (missing.Len() != g.PacketsIn(whole+1) || !slices.Equal(missing.Indices(), c.missing)):
				t.Errorf("missing = %v of %d, want %v of %d", missing.Indices(), missing.Len(), c.missing, g.PacketsIn(whole+1))
			}
			if !c.flat {
				if n != 0 {
					t.Errorf("n = %d without held", n)
				}
				return
			}
			if n != len(c.stored) {
				t.Errorf("n = %d, want %d", n, len(c.stored))
			}
			for seq, ok := range held {
				if ok != slices.Contains(c.stored, seq) {
					t.Errorf("held[%d] = %v", seq, ok)
				}
			}
		})
	}
}

// TestResumeOnEmptyFlashAllocatesNothing: every fresh mote resumes when
// it learns a geometry, so the common case must cost no garbage.
func TestResumeOnEmptyFlashAllocatesNothing(t *testing.T) {
	g, err := Split(300, 48)
	if err != nil {
		t.Fatal(err)
	}
	f := newFlash()
	if a := testing.AllocsPerRun(100, func() { Resume(f, g, nil) }); a != 0 {
		t.Fatalf("Resume on empty flash: %v allocs, want 0", a)
	}
}

package image

import (
	"fmt"

	"mnp/internal/bitvec"
)

// Geometry is how an image's packets lie in flash: consecutive units
// (MNP's segments, Deluge's pages) of a fixed packet count, every unit
// full but the last. Units are numbered from 1 and packets within a
// unit from 0, the (seg, pkt) keys of a mote's EEPROM; a packet's flat
// sequence number counts from 0 across the whole image. The zero value
// is the geometry of a mote that has not learned one: no units and no
// packets.
type Geometry struct {
	units int // units in the image
	unit  int // packets in a full unit
	total int // packets in the image
}

// NewGeometry returns the geometry of total packets in units units of
// unit packets each. It is the one check of a geometry a peer
// advertises: units must be exactly the count that unit and total
// imply, so the last unit holds one packet to a full unit.
func NewGeometry(units, unit, total int) (Geometry, error) {
	if unit <= 0 || total <= 0 {
		return Geometry{}, fmt.Errorf("image: geometry of %d packets in %d-packet units is empty", total, unit)
	}
	if want := (total + unit - 1) / unit; units != want {
		return Geometry{}, fmt.Errorf("image: %d packets in %d-packet units make %d units, not %d", total, unit, want, units)
	}
	return Geometry{units: units, unit: unit, total: total}, nil
}

// Split returns the geometry of total packets cut into units of unit
// packets.
func Split(total, unit int) (Geometry, error) {
	units := 0
	if unit > 0 {
		units = (total + unit - 1) / unit
	}
	return NewGeometry(units, unit, total)
}

// Units returns the number of units.
func (g Geometry) Units() int { return g.units }

// Unit returns the packet count of a full unit.
func (g Geometry) Unit() int { return g.unit }

// Total returns the number of packets in the image.
func (g Geometry) Total() int { return g.total }

// PacketsIn returns the packet count of unit u, and 0 for a unit the
// image does not have.
func (g Geometry) PacketsIn(u int) int {
	switch {
	case u < 1 || u > g.units:
		return 0
	case u < g.units:
		return g.unit
	}
	return g.total - (g.units-1)*g.unit
}

// Slot returns the unit and packet of flat sequence number seq.
func (g Geometry) Slot(seq int) (u, pkt int) {
	return seq/g.unit + 1, seq % g.unit
}

// Seq returns the flat sequence number of packet pkt of unit u.
func (g Geometry) Seq(u, pkt int) int {
	return (u-1)*g.unit + pkt
}

// Flash is the part of a mote's runtime that Preload writes through
// and Resume reads.
type Flash interface {
	HasPacket(seg, pkt int) bool
	Store(seg, pkt, segPackets int, payload []byte) error
}

// Preload writes im into f laid out by g, in flat order, and skips the
// slots f already holds: a rebooted base keeps its flash, so it writes
// each slot once however often it restarts.
func Preload(f Flash, im *Image, g Geometry) error {
	if g.total != im.TotalPackets() {
		return fmt.Errorf("image: geometry of %d packets for a %d-packet image", g.total, im.TotalPackets())
	}
	for seq := 0; seq < g.total; seq++ {
		u, pkt := g.Slot(seq)
		if f.HasPacket(u, pkt) {
			continue
		}
		if err := f.Store(u, pkt, g.PacketsIn(u), im.packet(seq)); err != nil {
			return fmt.Errorf("image: storing packet %d at (%d,%d): %w", seq, u, pkt, err)
		}
	}
	return nil
}

// Resume reads what f holds of an image laid out by g. A rebooted mote
// has lost its RAM but not its flash, so a protocol calls Resume when
// it learns g, and neither downloads nor writes again a slot it holds;
// on a fresh mote f is empty and Resume allocates nothing. whole is the
// number of leading units f holds in full. missing has a bit set for
// each packet of unit whole+1 that f lacks; it is nil when f holds none
// of that unit, or when the unit is wider than bitvec.MaxBits.
//
// A flat tracker, whose slots need not fill in unit order, passes held
// with g.Total() entries: Resume sets held[seq] for every slot f holds
// and returns their count as n.
func Resume(f Flash, g Geometry, held []bool) (whole int, missing *bitvec.Vector, n int) {
	for ; whole < g.units; whole++ {
		u, k, got := whole+1, g.PacketsIn(whole+1), 0
		for pkt := range k {
			if f.HasPacket(u, pkt) {
				got++
			}
		}
		if got == k {
			continue
		}
		if got > 0 && k <= bitvec.MaxBits {
			missing = bitvec.MustNew(k)
			for pkt := range k {
				if !f.HasPacket(u, pkt) {
					missing.Set(pkt)
				}
			}
		}
		break
	}
	for seq := range held {
		if f.HasPacket(g.Slot(seq)) {
			held[seq] = true
			n++
		}
	}
	return whole, missing, n
}

package rlnc

import "slices"

// decoder runs incremental Gaussian elimination over one segment: each
// coded packet contributes a row [coeffs | payload]; rows are reduced
// against the pivoted basis on arrival, so completing a segment is
// O(k) row operations per packet instead of one big end-of-segment
// solve — exactly how a mote would spread the CPU cost across
// receptions.
type decoder struct {
	k    int // packets in the segment (coefficient width)
	w    int // coded payload width in bytes
	rank int
	// rows[p] is nil or a row whose leading coefficient is a 1 in
	// column p, laid out as k coefficient bytes followed by w payload
	// bytes.
	rows [][]byte
	// slab backs every row: k rows of k+w bytes. Row number rank is the
	// next free one, and an arriving frame is reduced in it, so a
	// dependent frame leaves nothing behind and addRow never allocates.
	// Like the encoder's table it is kept across segments.
	slab []byte
}

// reset readies d for a segment of k packets of w-byte payloads: rank
// 0 and no pivot rows. rows and slab are re-cut from what d already
// holds and regrow only when the segment needs more room. The slab is
// not cleared: addRow writes every byte of the row it takes, zero pad
// included, and reads no row it has not written.
func (d *decoder) reset(k, w int) {
	d.k, d.w, d.rank = k, w, 0
	d.rows = slices.Grow(d.rows[:0], k)[:k]
	clear(d.rows)
	n := k * (k + w)
	d.slab = slices.Grow(d.slab[:0], n)[:n]
}

// addRow folds one coded packet into the basis. It returns the number
// of GF(256) row operations performed (the energy unit) and whether the
// row was innovative (increased the rank). Payloads shorter than w are
// zero-padded; coefficient vectors shorter than k are rejected as
// non-innovative, and extra coefficients are ignored.
func (d *decoder) addRow(coeffs, payload []byte) (ops int, innovative bool) {
	if len(coeffs) < d.k || len(payload) > d.w || d.rank == d.k {
		return 0, false
	}
	n := d.k + d.w
	row := d.slab[d.rank*n:][:n]
	copy(row, coeffs[:d.k])
	pad := row[d.k+copy(row[d.k:], payload):]
	clear(pad) // a dependent frame may have been reduced here before
	// One left-to-right pass: a stored pivot row is zero left of its
	// pivot and 1 on it, so eliminating column p leaves row[:p+1] zero
	// and the search for the next non-zero resumes at p+1.
	for p := 0; p < d.k; p++ {
		c := row[p]
		if c == 0 {
			continue
		}
		ops++
		if pivot := d.rows[p]; pivot != nil {
			addScaledRow(row[p:], pivot[p:], c)
			continue
		}
		scaleRow(row[p:], gfInv(c))
		d.rows[p] = row
		d.rank++
		return ops, true
	}
	return ops, false // linearly dependent on the basis
}

// complete reports whether the basis has full rank.
func (d *decoder) complete() bool { return d.rank == d.k }

// reduce back-substitutes the full-rank basis to reduced row-echelon
// form, after which row p's payload is the segment's packet p. It
// returns the row operations performed and panics if called before
// full rank.
func (d *decoder) reduce() (ops int) {
	if !d.complete() {
		panic("rlnc: reduce before full rank")
	}
	// By the time row p is the source it is already [0…0 1 0…0 |
	// payload] — every later pivot has been eliminated from it — so
	// only the payload columns of the target can change: clear the one
	// coefficient and do the row operation on the payload alone.
	for p := d.k - 1; p > 0; p-- {
		src := d.rows[p][d.k:]
		for q := 0; q < p; q++ {
			if c := d.rows[q][p]; c != 0 {
				d.rows[q][p] = 0
				addScaledRow(d.rows[q][d.k:], src, c)
				ops++
			}
		}
	}
	return ops
}

// packet returns the decoded payload of packet p after reduce.
func (d *decoder) packet(p int) []byte { return d.rows[p][d.k:] }

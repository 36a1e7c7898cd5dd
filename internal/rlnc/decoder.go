package rlnc

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
}

func newDecoder(k, w int) *decoder {
	return &decoder{k: k, w: w, rows: make([][]byte, k)}
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
	row := make([]byte, d.k+d.w)
	copy(row, coeffs[:d.k])
	copy(row[d.k:], payload)
	for {
		p := -1
		for i, c := range row[:d.k] {
			if c != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			return ops, false // linearly dependent on the basis
		}
		if d.rows[p] == nil {
			scaleRow(row, gfInv(row[p]))
			ops++
			d.rows[p] = row
			d.rank++
			return ops, true
		}
		// A stored pivot row is zero left of its pivot column.
		addScaledRow(row[p:], d.rows[p][p:], row[p])
		ops++
	}
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
	for p := d.k - 1; p > 0; p-- {
		for q := 0; q < p; q++ {
			if c := d.rows[q][p]; c != 0 {
				addScaledRow(d.rows[q][p:], d.rows[p][p:], c)
				ops++
			}
		}
	}
	return ops
}

// packet returns the decoded payload of packet p after reduce.
func (d *decoder) packet(p int) []byte { return d.rows[p][d.k:] }

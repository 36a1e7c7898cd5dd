package rlnc

import (
	"encoding/binary"
	"slices"
)

// encoder is the serving side's RAM cache of one segment, kept in the
// form that makes a coded frame cheap: the Method of Four Russians over
// coefficient bit-planes. A coded payload Σ c_i·row_i is Σ_b 2^b·S_b,
// where S_b is the plain XOR of the source rows whose coefficient has
// bit b set. For every group of four source rows the table holds the
// XOR of each of the 16 subsets as little-endian words, so S_b is one
// table entry per group — picked by the four coefficients' bit b —
// XOR-ed a word at a time, and the eight planes fold by Horner's rule
// with a word-wide multiply by 2. Groups of four keep the table at
// 16·⌈k/4⌉·⌈w/8⌉ words (12 KB for a 128×22 segment, L1-resident);
// per-row nibble tables would be 98 KB per serving mote.
type encoder struct {
	seg    int      // segment tabulated, 0 = none
	k      int      // source rows
	groups int      // ⌈k/4⌉
	words  int      // ⌈w/8⌉
	table  []uint64 // [word][group][subset]; kept and refilled across segments
	offs   []uint16 // per-frame scratch: [plane][group] entry within a word's table
}

const (
	groupRows   = 4              // source rows per table group
	groupStride = 1 << groupRows // subsets per group
)

// fill tabulates segment seg: k source rows of at most w bytes each
// (the image's final packet is shorter and is zero-padded), fetched
// through row. It reports false, leaving nothing tabulated, when a row
// is missing.
func (e *encoder) fill(seg, k, w int, row func(i int) []byte) bool {
	e.seg = 0
	e.k = k
	e.groups = (k + groupRows - 1) / groupRows
	e.words = (w + 7) / 8
	n := e.groups * groupStride * e.words
	e.table = slices.Grow(e.table[:0], n)[:n]
	n = 8 * (e.groups + e.groups&1) // encode writes offsets a pair of groups at a time
	e.offs = slices.Grow(e.offs[:0], n)[:n]
	for i := 0; i < k; i++ {
		p := row(i)
		if p == nil {
			return false
		}
		// Row i alone is subset bit of its group, and every larger
		// subset holding it is one already tabulated plus it.
		g, bit := i/groupRows, 1<<(i%groupRows)
		for j := 0; j < e.words; j++ {
			grp := e.table[(j*e.groups+g)*groupStride:][:groupStride]
			if bit == 1 {
				grp[0] = 0 // the empty subset
			}
			x := word(p, j)
			for s := bit; s < 2*bit; s++ {
				grp[s] = grp[s-bit] ^ x
			}
		}
	}
	e.seg = seg
	return true
}

// word returns bytes [8j, 8j+8) of p as a little-endian word, zero
// past the end of p.
func word(p []byte, j int) uint64 {
	if lo := 8 * j; lo+8 <= len(p) {
		return binary.LittleEndian.Uint64(p[lo:])
	}
	var x uint64
	for i := 8 * j; i < len(p); i++ {
		x |= uint64(p[i]) << (8 * (i - 8*j))
	}
	return x
}

// putWord stores x into dst low byte first: all eight bytes, or as many
// as dst has room for.
func putWord(dst []byte, x uint64) {
	if len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, x)
		return
	}
	for i := range dst {
		dst[i] = byte(x >> (8 * i))
	}
}

// mul2 multiplies eight GF(256) elements packed in a word by 2: shift
// each byte left and reduce the ones that overflowed by 0x11D.
func mul2(x uint64) uint64 {
	return (x&0x7f7f7f7f7f7f7f7f)<<1 ^ (x>>7&0x0101010101010101)*0x1D
}

// transpose8 transposes an 8×8 bit matrix held one row per byte (three
// delta swaps): fed eight coefficients, byte b of the result holds
// their bit b, coefficient i's in bit i.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}

// encode writes Σ coeffs[i]·row_i of the tabulated segment into
// payload (w bytes).
func (e *encoder) encode(payload, coeffs []byte) {
	// Which entry each plane takes from each group: eight coefficients
	// at a time, a plane's byte is the subset numbers of two groups.
	stride := len(e.offs) / 8
	for h := 0; 2*h < e.groups; h++ {
		t := transpose8(word(coeffs[:e.k], h))
		o := e.offs[2*h:]
		base := uint16(2 * h * groupStride)
		for b := 0; b < 8; b++ {
			o[b*stride] = base + uint16(t&0xF)
			o[b*stride+1] = base + groupStride + uint16(t>>4&0xF)
			t >>= 8
		}
	}
	// Word-outer, so a word's plane sum and Horner accumulator stay in
	// registers while the table is walked.
	n := e.groups * groupStride
	for j := 0; j < e.words; j++ {
		col := e.table[j*n:][:n]
		var acc uint64
		for b := 7; b >= 0; b-- {
			var s uint64
			offs := e.offs[b*stride:][:e.groups]
			for ; len(offs) >= 4; offs = offs[4:] {
				s ^= col[offs[0]] ^ col[offs[1]] ^ col[offs[2]] ^ col[offs[3]]
			}
			for _, o := range offs {
				s ^= col[o]
			}
			acc = mul2(acc) ^ s
		}
		putWord(payload[8*j:], acc)
	}
}

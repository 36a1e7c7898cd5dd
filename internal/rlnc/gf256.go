package rlnc

// GF(256) arithmetic for random linear coding, built on log/exp tables
// over the Reed-Solomon polynomial x^8+x^4+x^3+x^2+1 (0x11D) with
// generator 2 — the same field every fountain/RLNC implementation on
// 8-bit motes uses, because a multiply is then two table lookups and an
// add is XOR.

var (
	gfExp [512]byte // gfExp[i] = g^i, doubled so Mul skips a mod 255
	gfLog [256]byte // gfLog[gfExp[i]] = i; gfLog[0] unused
	// gfProd[a][b] = a*b: 64 KB, so the row kernel is one lookup per
	// byte with no zero test. A row operation uses a single 256-byte
	// line of it.
	gfProd [256][256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 2
		hi := x & 0x80
		x <<= 1
		if hi != 0 {
			x ^= 0x1D // reduce by 0x11D
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfProd[a][b] = gfMul(byte(a), byte(b))
		}
	}
}

// gfMul multiplies a and b in GF(256).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a; gfInv(0) is 0 (zero
// has no inverse — callers must pivot on non-zero entries).
func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[255-int(gfLog[a])]
}

// gfDiv divides a by b; gfDiv(x, 0) is 0 by the gfInv convention.
func gfDiv(a, b byte) byte { return gfMul(a, gfInv(b)) }

// scaleRow multiplies every byte of row by c in place.
func scaleRow(row []byte, c byte) {
	if c == 1 {
		return
	}
	for i, v := range row {
		if v != 0 {
			row[i] = gfExp[int(gfLog[v])+int(gfLog[c])]
		}
	}
}

// addScaledRow sets dst += c*src element-wise (XOR is addition).
func addScaledRow(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		for i, v := range src {
			dst[i] ^= v
		}
	default:
		t := &gfProd[c]
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] ^= t[v]
		}
	}
}

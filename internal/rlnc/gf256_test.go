package rlnc

import (
	"math/rand"
	"testing"
)

// The exp table must enumerate every non-zero field element exactly
// once per period — the property the decoder's termination depends on
// (a non-generator builds a short cycle, log/inv go wrong, and pivot
// normalization never reaches 1).
func TestGeneratorHasFullOrder(t *testing.T) {
	seen := make(map[byte]int, 255)
	for i := 0; i < 255; i++ {
		v := gfExp[i]
		if v == 0 {
			t.Fatalf("gfExp[%d] = 0; zero is not in the multiplicative group", i)
		}
		if j, dup := seen[v]; dup {
			t.Fatalf("gfExp[%d] = gfExp[%d] = %#x: generator has order %d, not 255", i, j, v, i-j)
		}
		seen[v] = i
	}
	for i := 255; i < 512; i++ {
		if gfExp[i] != gfExp[i-255] {
			t.Fatalf("doubled table wrong at %d", i)
		}
	}
	for v := 1; v < 256; v++ {
		if gfExp[gfLog[byte(v)]] != byte(v) {
			t.Fatalf("log/exp round trip broken at %#x", v)
		}
	}
}

// Field axioms. Commutativity and identity are cheap enough to check
// exhaustively over all pairs; associativity and distributivity over a
// deterministic random sample of triples.
func TestFieldAxioms(t *testing.T) {
	for a := 0; a < 256; a++ {
		ab, ba := byte(a), byte(a)
		if gfMul(ab, 1) != ab {
			t.Fatalf("%#x * 1 != %#x", a, a)
		}
		if gfMul(ab, 0) != 0 {
			t.Fatalf("%#x * 0 != 0", a)
		}
		for b := a; b < 256; b++ {
			if gfMul(ab, byte(b)) != gfMul(byte(b), ba) {
				t.Fatalf("multiplication not commutative at (%#x, %#x)", a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("multiplication not associative at (%#x, %#x, %#x)", a, b, c)
		}
		// Addition is XOR; distributivity ties the two together.
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails at (%#x, %#x, %#x)", a, b, c)
		}
	}
}

// Every non-zero element has an inverse that round-trips through
// multiplication and division.
func TestInverseRoundTrip(t *testing.T) {
	if gfInv(0) != 0 {
		t.Fatal("gfInv(0) must be 0 by convention")
	}
	for a := 1; a < 256; a++ {
		ab := byte(a)
		inv := gfInv(ab)
		if inv == 0 {
			t.Fatalf("gfInv(%#x) = 0", a)
		}
		if gfMul(ab, inv) != 1 {
			t.Fatalf("%#x * inv(%#x) = %#x, want 1", a, a, gfMul(ab, inv))
		}
		if gfDiv(ab, ab) != 1 {
			t.Fatalf("%#x / %#x != 1", a, a)
		}
		for b := 1; b < 256; b++ {
			bb := byte(b)
			if gfMul(gfDiv(ab, bb), bb) != ab {
				t.Fatalf("(%#x / %#x) * %#x != %#x", a, b, b, a)
			}
		}
	}
}

// The row helpers must agree with scalar gfMul element-wise.
func TestRowOpsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(64)
		src := make([]byte, n)
		rng.Read(src)
		c := byte(rng.Intn(256))

		row := append([]byte(nil), src...)
		scaleRow(row, c)
		for i := range row {
			if row[i] != gfMul(src[i], c) {
				t.Fatalf("scaleRow c=%#x differs from gfMul at %d", c, i)
			}
		}

		dst := make([]byte, n)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ gfMul(src[i], c)
		}
		addScaledRow(dst, src, c)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("addScaledRow c=%#x differs from scalar at %d", c, i)
			}
		}
	}
}

// The product table is what addScaledRow reads; it must agree with the
// log/exp multiply on every pair, zeros included.
func TestProductTableMatchesMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfProd[a][b], gfMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfProd[%#x][%#x] = %#x, gfMul gives %#x", a, b, got, want)
			}
		}
	}
}

// The decoder hands addScaledRow sub-slices starting at the pivot
// column. For every coefficient and a spread of offsets the kernel must
// match the scalar reference inside the window and leave the bytes
// outside it alone.
func TestAddScaledRowOnOffsetSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 96
	src, dst := make([]byte, n), make([]byte, n)
	for c := 0; c < 256; c++ {
		for _, off := range []int{0, 1, rng.Intn(n), n - 1, n} {
			rng.Read(src)
			rng.Read(dst)
			src[rng.Intn(n)] = 0 // zeros take the same path as everything else
			want := append([]byte(nil), dst...)
			for i := off; i < n; i++ {
				want[i] ^= gfMul(src[i], byte(c))
			}
			addScaledRow(dst[off:], src[off:], byte(c))
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("c=%#x offset %d: byte %d is %#x, scalar reference %#x", c, off, i, dst[i], want[i])
				}
			}
		}
	}
}

package bitvec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-1, 0, MaxBits + 1, 1 << 20} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded, want error", n)
		}
	}
}

func TestNewAcceptsValidSizes(t *testing.T) {
	for _, n := range []int{1, 7, 8, 63, 64, 65, 127, MaxBits} {
		v, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if v.Len() != n {
			t.Errorf("Len = %d, want %d", v.Len(), n)
		}
		if v.Any() {
			t.Errorf("New(%d) has set bits", n)
		}
	}
}

func TestMustNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestSetGetClear(t *testing.T) {
	v := MustNew(100)
	for _, i := range []int{0, 1, 63, 64, 65, 99} {
		if v.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := MustNew(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestAllSetAndCount(t *testing.T) {
	for _, n := range []int{1, 8, 64, 100, 128} {
		v, err := AllSet(n)
		if err != nil {
			t.Fatalf("AllSet(%d): %v", n, err)
		}
		if got := v.Count(); got != n {
			t.Errorf("AllSet(%d).Count = %d", n, got)
		}
		if v.None() {
			t.Errorf("AllSet(%d).None = true", n)
		}
		v.ClearAll()
		if !v.None() || v.Count() != 0 {
			t.Errorf("ClearAll left bits set for n=%d", n)
		}
	}
}

func TestSetAllDoesNotOverflowTail(t *testing.T) {
	// SetAll on a 100-bit vector must not set the 28 padding bits; if it
	// did, Count would exceed Len and Bytes would have padding garbage.
	v := MustNew(100)
	v.SetAll()
	if got := v.Count(); got != 100 {
		t.Fatalf("Count after SetAll = %d, want 100", got)
	}
	b := v.Bytes()
	if b[len(b)-1] != 0x0f { // bits 96..99 only
		t.Fatalf("final byte = %#x, want 0x0f", b[len(b)-1])
	}
}

func TestFirstAndNextAfter(t *testing.T) {
	v := MustNew(128)
	if v.First() != -1 {
		t.Fatalf("First on empty = %d", v.First())
	}
	for _, i := range []int{3, 64, 127} {
		v.Set(i)
	}
	if got := v.First(); got != 3 {
		t.Fatalf("First = %d, want 3", got)
	}
	if got := v.NextAfter(3); got != 64 {
		t.Fatalf("NextAfter(3) = %d, want 64", got)
	}
	if got := v.NextAfter(64); got != 127 {
		t.Fatalf("NextAfter(64) = %d, want 127", got)
	}
	if got := v.NextAfter(127); got != -1 {
		t.Fatalf("NextAfter(127) = %d, want -1", got)
	}
	if got := v.NextAfter(200); got != -1 {
		t.Fatalf("NextAfter(200) = %d, want -1", got)
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	v := MustNew(90)
	want := []int{0, 17, 33, 64, 89}
	for _, i := range want {
		v.Set(i)
	}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestOrIsUnion(t *testing.T) {
	a := MustNew(70)
	b := MustNew(70)
	a.Set(1)
	a.Set(65)
	b.Set(2)
	b.Set(65)
	if err := a.Or(b); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 65} {
		if !a.Get(i) {
			t.Errorf("bit %d not set after Or", i)
		}
	}
	if a.Count() != 3 {
		t.Errorf("Count = %d, want 3", a.Count())
	}
}

func TestOrLengthMismatch(t *testing.T) {
	a := MustNew(10)
	b := MustNew(11)
	if err := a.Or(b); err == nil {
		t.Fatal("Or with mismatched lengths succeeded")
	}
	if err := a.Or(nil); err == nil {
		t.Fatal("Or(nil) succeeded")
	}
	if err := a.AndNot(b); err == nil {
		t.Fatal("AndNot with mismatched lengths succeeded")
	}
}

func TestAndNotRemoves(t *testing.T) {
	a, _ := AllSet(50)
	b := MustNew(50)
	b.Set(10)
	b.Set(49)
	if err := a.AndNot(b); err != nil {
		t.Fatal(err)
	}
	if a.Get(10) || a.Get(49) {
		t.Fatal("AndNot left removed bits set")
	}
	if a.Count() != 48 {
		t.Fatalf("Count = %d, want 48", a.Count())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := MustNew(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Get(6) {
		t.Fatal("mutating clone changed original")
	}
	if !b.Get(5) {
		t.Fatal("clone missing original bit")
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(65)
	b := MustNew(65)
	if !a.Equal(b) {
		t.Fatal("fresh vectors unequal")
	}
	a.Set(64)
	if a.Equal(b) {
		t.Fatal("different vectors equal")
	}
	b.Set(64)
	if !a.Equal(b) {
		t.Fatal("same vectors unequal")
	}
	if a.Equal(MustNew(64)) {
		t.Fatal("different lengths equal")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) = true")
	}
}

func TestBytesDecodeRoundTripFixed(t *testing.T) {
	v := MustNew(12)
	v.Set(0)
	v.Set(8)
	v.Set(11)
	b := v.Bytes()
	if len(b) != 2 {
		t.Fatalf("len(Bytes) = %d, want 2", len(b))
	}
	got, err := Decode(12, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("decode mismatch: %v vs %v", got, v)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := Decode(12, []byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := Decode(12, []byte{1, 2, 3}); err == nil {
		t.Fatal("long buffer accepted")
	}
	// Padding bits above bit 11 must be zero.
	if _, err := Decode(12, []byte{0, 0xf0}); err == nil {
		t.Fatal("nonzero padding accepted")
	}
	if _, err := Decode(0, nil); err == nil {
		t.Fatal("zero-size decode accepted")
	}
}

func TestStringSummarizes(t *testing.T) {
	v := MustNew(16)
	v.Set(2)
	if s := v.String(); s == "" {
		t.Fatal("empty String")
	}
	// Cosmetic truncation path.
	w, _ := AllSet(128)
	if s := w.String(); s == "" {
		t.Fatal("empty String for full vector")
	}
}

// Property: Bytes/Decode round-trips for arbitrary bit patterns.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%MaxBits + 1
		rng := rand.New(rand.NewSource(seed))
		v := MustNew(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
			}
		}
		got, err := Decode(n, v.Bytes())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendBytes lays down, after whatever dst holds, the bytes a
// bit-at-a-time serialization gives — the wire form download requests
// carry.
func TestQuickAppendBytesIsBitwise(t *testing.T) {
	f := func(seed int64, nRaw uint8, prefix []byte) bool {
		n := int(nRaw)%MaxBits + 1
		rng := rand.New(rand.NewSource(seed))
		v := MustNew(n)
		want := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
				want[i/8] |= 1 << (i % 8)
			}
		}
		got := v.AppendBytes(prefix)
		return bytes.Equal(got[:len(prefix)], prefix) && bytes.Equal(got[len(prefix):], want) && bytes.Equal(v.Bytes(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of indices, and every index Get()s.
func TestQuickCountMatchesIndices(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%MaxBits + 1
		rng := rand.New(rand.NewSource(seed))
		v := MustNew(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
			}
		}
		idx := v.Indices()
		if len(idx) != v.Count() {
			return false
		}
		for _, i := range idx {
			if !v.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a.Or(b) yields exactly the union; AndNot undoes it where b set.
func TestQuickOrUnionSemantics(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%MaxBits + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := MustNew(n), MustNew(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				a.Set(i)
			}
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		orig := a.Clone()
		if a.Or(b) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if a.Get(i) != (orig.Get(i) || b.Get(i)) {
				return false
			}
		}
		if a.AndNot(b) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if a.Get(i) != (orig.Get(i) && !b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetAndCount(b *testing.B) {
	v := MustNew(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Set(i % 128)
		_ = v.Count()
	}
}

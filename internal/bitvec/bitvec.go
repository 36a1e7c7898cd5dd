// Package bitvec provides the fixed-capacity bit vectors MNP uses to
// track per-segment packet state: the receiver's MissingVector (bits
// set for packets not yet received) and the sender's ForwardVector
// (bits set for packets some requester is missing).
//
// MNP restricts a segment to at most 128 packets so that a vector is at
// most 16 bytes and fits into a single radio packet alongside the
// request header.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxBits is the largest vector capacity MNP uses. A 128-bit vector is
// 16 bytes, small enough to ride inside one download-request packet.
const MaxBits = 128

// Vector is a fixed-capacity bit vector. The zero value is unusable;
// construct with New or Decode.
type Vector struct {
	n     int
	words []uint64
}

// New returns a vector of n bits, all clear. n must be in (0, MaxBits].
func New(n int) (*Vector, error) {
	if n <= 0 || n > MaxBits {
		return nil, fmt.Errorf("bitvec: size %d out of range (0, %d]", n, MaxBits)
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}, nil
}

// MustNew is New for sizes known valid at compile time; it panics on a
// bad size.
func MustNew(n int) *Vector {
	v, err := New(n)
	if err != nil {
		panic(err)
	}
	return v
}

// AllSet returns a vector of n bits, all set — the initial
// MissingVector state, where every packet of the segment is missing.
func AllSet(n int) (*Vector, error) {
	v, err := New(n)
	if err != nil {
		return nil, err
	}
	v.SetAll()
	return v, nil
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/64] &^= 1 << (uint(i) % 64)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/64]&(1<<(uint(i)%64)) != 0
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set. For a MissingVector this means
// the segment is complete.
func (v *Vector) None() bool { return !v.Any() }

// First returns the index of the lowest set bit, or -1 if none. Senders
// walk the ForwardVector with First/NextAfter to transmit requested
// packets in order.
func (v *Vector) First() int { return v.NextAfter(-1) }

// NextAfter returns the index of the lowest set bit strictly greater
// than i, or -1 if none. Pass -1 to start from the beginning.
func (v *Vector) NextAfter(i int) int {
	start := i + 1
	if start >= v.n {
		return -1
	}
	wi := start / 64
	w := v.words[wi] >> (uint(start) % 64)
	if w != 0 {
		return start + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Or merges other into v (v |= other). This is how an advertising node
// folds a requester's MissingVector into its ForwardVector. The vectors
// must have the same length.
func (v *Vector) Or(other *Vector) error {
	if other == nil || other.n != v.n {
		return fmt.Errorf("bitvec: length mismatch in Or")
	}
	for i := range v.words {
		v.words[i] |= other.words[i]
	}
	return nil
}

// AndNot clears in v every bit set in other (v &^= other).
func (v *Vector) AndNot(other *Vector) error {
	if other == nil || other.n != v.n {
		return fmt.Errorf("bitvec: length mismatch in AndNot")
	}
	for i := range v.words {
		v.words[i] &^= other.words[i]
	}
	return nil
}

// Equal reports whether v and other have the same length and bits.
func (v *Vector) Equal(other *Vector) bool {
	if other == nil || other.n != v.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Indices returns the indices of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for i := v.First(); i >= 0; i = v.NextAfter(i) {
		out = append(out, i)
	}
	return out
}

// Bytes serializes the vector into the wire form carried by download
// requests: ceil(n/8) bytes, little-endian bit order within each byte.
func (v *Vector) Bytes() []byte { return v.AppendBytes(nil) }

// AppendBytes appends the wire form Bytes returns to dst. The words
// already hold the bits in that order, so it is a little-endian copy.
func (v *Vector) AppendBytes(dst []byte) []byte {
	for i := 0; i < (v.n+7)/8; i++ {
		dst = append(dst, byte(v.words[i/8]>>(8*(i%8))))
	}
	return dst
}

// Decode reconstructs an n-bit vector from its wire form. Extra bits in
// the final byte must be zero.
func Decode(n int, data []byte) (*Vector, error) {
	v, err := New(n)
	if err != nil {
		return nil, err
	}
	want := (n + 7) / 8
	if len(data) != want {
		return nil, fmt.Errorf("bitvec: decode %d bits needs %d bytes, got %d", n, want, len(data))
	}
	for i := 0; i < n; i++ {
		if data[i/8]&(1<<(uint(i)%8)) != 0 {
			v.Set(i)
		}
	}
	if tail := n % 8; tail != 0 {
		if data[len(data)-1]>>uint(tail) != 0 {
			return nil, fmt.Errorf("bitvec: nonzero padding bits in final byte")
		}
	}
	return v, nil
}

// DecodeReuse is Decode into an existing vector: when v is non-nil and
// its word storage already spans n bits, the storage is reused and v
// itself is returned; otherwise a fresh vector is allocated exactly as
// Decode does. The radio's pooled frame decoding uses it so steady-state
// deliveries of vector-carrying messages stop allocating.
func DecodeReuse(v *Vector, n int, data []byte) (*Vector, error) {
	if v == nil || n <= 0 || n > MaxBits || cap(v.words) < (n+63)/64 {
		return Decode(n, data)
	}
	want := (n + 7) / 8
	if len(data) != want {
		return nil, fmt.Errorf("bitvec: decode %d bits needs %d bytes, got %d", n, want, len(data))
	}
	if tail := n % 8; tail != 0 && data[len(data)-1]>>uint(tail) != 0 {
		return nil, fmt.Errorf("bitvec: nonzero padding bits in final byte")
	}
	v.n = n
	v.words = v.words[:(n+63)/64]
	for i := range v.words {
		v.words[i] = 0
	}
	for i := 0; i < n; i++ {
		if data[i/8]&(1<<(uint(i)%8)) != 0 {
			v.Set(i)
		}
	}
	return v, nil
}

// String renders the vector as a compact summary for logs and tests.
func (v *Vector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bitvec(%d/%d:", v.Count(), v.n)
	idx := v.Indices()
	const maxShown = 8
	for i, x := range idx {
		if i == maxShown {
			b.WriteString("…")
			break
		}
		fmt.Fprintf(&b, " %d", x)
	}
	b.WriteString(")")
	return b.String()
}

// Set is a fixed-capacity bit set over dense small-integer keys. Unlike
// Vector it has no MaxBits cap and no wire format: it exists for the
// simulator's hot paths (per-receiver audibility and collision marking
// in internal/radio), where membership tests must be O(1) and a set
// must be reusable without reallocation.
type Set struct {
	n     int
	words []uint64
}

// NewSet returns a set over keys [0, n).
func NewSet(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative set capacity %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Cap returns the key-space size the set was built for.
func (s *Set) Cap() int { return s.n }

// Add inserts key i.
func (s *Set) Add(i int) {
	s.checkKey(i)
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove deletes key i.
func (s *Set) Remove(i int) {
	s.checkKey(i)
	s.words[i/64] &^= 1 << (uint(i) % 64)
}

// Contains reports whether key i is in the set. Keys outside the
// capacity are simply absent, so callers can probe without bounds
// checks of their own.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Reset empties the set without releasing its storage.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of keys in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrIntersection folds a ∩ b into s (s |= a ∩ b) one word at a time —
// the radio's collision marking, where every receiver audible to two
// overlapping transmitters loses both frames. All three sets must share
// a capacity.
func (s *Set) OrIntersection(a, b *Set) {
	if a.n != s.n || b.n != s.n {
		panic(fmt.Sprintf("bitvec: OrIntersection capacity mismatch (%d, %d, %d)", s.n, a.n, b.n))
	}
	for i := range s.words {
		s.words[i] |= a.words[i] & b.words[i]
	}
}

// ResetCap empties the set and re-dimensions it to the key space
// [0, n), reusing the existing word storage when it is large enough.
// The radio's pooled collision sets use it: each transmission's set is
// sized to that frame's audible-neighbor count, so capacity follows the
// local node degree instead of the network size.
func (s *Set) ResetCap(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative set capacity %d", n))
	}
	words := (n + 63) / 64
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

func (s *Set) checkKey(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitvec: key %d out of range [0,%d)", i, s.n))
	}
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) maskTail() {
	if tail := v.n % 64; tail != 0 {
		v.words[len(v.words)-1] &= (1 << uint(tail)) - 1
	}
}

// Package bitmap implements dense bitsets over object identifiers.
//
// BOND's implementation section (paper Section 6.1) uses a bitmap index on
// histogram identifiers to represent the pruned candidate set during early
// iterations, when selectivity is still low and materializing positional
// join results would copy most of the table. The same bitmap doubles as the
// delete-mark structure for updates (Section 6.2) and as the carrier for
// combining k-NN search with prior selection predicates.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-size dense bitset over [0, Len).
type Bitmap struct {
	n     int
	words []uint64
}

// New returns a bitmap of n bits, all clear. It panics if n < 0.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns a bitmap of n bits, all set.
func NewFull(n int) *Bitmap {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

// clearTail zeroes the unused bits of the last word so Count stays exact.
func (b *Bitmap) clearTail() {
	if b.n%wordBits != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(b.n%wordBits)) - 1
	}
}

// Len returns the bitmap's size in bits.
func (b *Bitmap) Len() int { return b.n }

// Words returns the backing words, bit i of the bitmap being bit i%64 of
// word i/64 and the unused bits of the last word zero. The view is
// read-only.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i. It panics if i is out of range.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits (population count).
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects b with other in place. It panics on size mismatch.
func (b *Bitmap) And(other *Bitmap) {
	b.sameSize(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions b with other in place. It panics on size mismatch.
func (b *Bitmap) Or(other *Bitmap) {
	b.sameSize(other)
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot clears in b every bit set in other. It panics on size mismatch.
func (b *Bitmap) AndNot(other *Bitmap) {
	b.sameSize(other)
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

func (b *Bitmap) sameSize(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: size mismatch %d vs %d", b.n, other.n))
	}
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Reset clears all bits.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Reuse resizes b to n bits, all clear, reusing the word buffer when it is
// large enough — the pooled counterpart of New. It panics if n < 0.
func (b *Bitmap) Reuse(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	words := (n + wordBits - 1) / wordBits
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	} else {
		b.words = b.words[:words]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// SetAll sets every bit.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
}

// ForEach calls fn for every set bit in increasing order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// Slice returns the indexes of all set bits in increasing order.
func (b *Bitmap) Slice() []int {
	return b.AppendSlice(make([]int, 0, b.Count()))
}

// AppendSlice appends the indexes of all set bits, in increasing order, to
// dst and returns the extended slice — the allocation-free counterpart of
// Slice for callers bringing their own buffer.
func (b *Bitmap) AppendSlice(dst []int) []int {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+tz)
			w &= w - 1
		}
	}
	return dst
}

// FromSlice builds a bitmap of size n with the given bits set.
// It panics if any index is out of range.
func FromSlice(n int, idxs []int) *Bitmap {
	b := New(n)
	for _, i := range idxs {
		b.Set(i)
	}
	return b
}

// Package bat implements Binary Association Tables and the Monet
// Interpreter Language (MIL) operators that the paper's Section 6 uses to
// express BOND inside a relational engine. Package mil, the Section 6.1
// reference engine, is its only caller.
//
// A BAT is a two-column table of (head, tail) pairs. As in Monet, a head
// can be "void": a densely ascending sequence of virtual object identifiers
// that is never materialized, enabling positional lookups and saving a
// third of the storage (paper footnote 4). The operators are the ones in
// the Section 6.1 listing, each in the physical form that writes into a
// caller's buffer:
//
//   - the map operator with a constant, [min](Hi, const qi),
//   - the map [+] that positionally adds aligned score columns,
//   - uselect: the unary range select, returning qualifying heads, or
//     alternatively a bitmap (the optimization for low-selectivity early
//     iterations),
//   - reverse and the positional join used to reduce the remaining
//     dimension tables to the candidate set, and the bitmap-driven select
//     that materializes the candidates' scores.
//
// kfetch, the k-th largest tail value, is topk.KthLargest.
package bat

import (
	"fmt"
	"math"

	"bond/internal/bitmap"
)

// Float is a BAT with float64 tail values. A nil Head means the head is
// void: entry i has head Base+i.
type Float struct {
	Head []int
	Base int
	Tail []float64
}

// OID is a BAT with object-identifier tail values.
type OID struct {
	Head []int
	Base int
	Tail []int
}

// NewFloatVoid returns a float BAT with a void head starting at base.
func NewFloatVoid(base int, tail []float64) *Float {
	return &Float{Base: base, Tail: tail}
}

// Len returns the number of tuples.
func (b *Float) Len() int { return len(b.Tail) }

// HeadAt returns the head value of tuple i.
func (b *Float) HeadAt(i int) int {
	if b.Head == nil {
		return b.Base + i
	}
	return b.Head[i]
}

// IsVoid reports whether the head is a dense virtual sequence.
func (b *Float) IsVoid() bool { return b.Head == nil }

// MapMinConstInto implements [min](src, const q) into dst:
// dst[i] = min(src[i], q), the per-dimension histogram-intersection
// contribution of the Section 6.1 listing, step 1. dst must be at least as
// long as src, and may be src.
func MapMinConstInto(dst, src []float64, q float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Min(v, q)
	}
}

// AddInto accumulates src into dst positionally (dst += src): the map [+]
// over aligned heads, which the paper notes is a positional equi-join of
// negligible cost. It panics on misaligned inputs.
func AddInto(dst, src *Float) {
	if dst.Len() != src.Len() || !aligned(dst, src) {
		panic("bat: AddInto inputs not aligned")
	}
	for i, v := range src.Tail {
		dst.Tail[i] += v
	}
}

func aligned(a, b *Float) bool {
	if a.IsVoid() != b.IsVoid() {
		return false
	}
	if a.IsVoid() {
		return a.Base == b.Base
	}
	for i := range a.Head {
		if a.Head[i] != b.Head[i] {
			return false
		}
	}
	return true
}

// USelectInto implements the unary range select: it appends to dst the
// heads of the tuples whose tail value lies in [lo, hi] and returns the
// extended slice — the [oid, void] result of Section 6.1, stored as its
// head column.
func USelectInto(dst []int, b *Float, lo, hi float64) []int {
	for i, v := range b.Tail {
		if v >= lo && v <= hi {
			dst = append(dst, b.HeadAt(i))
		}
	}
	return dst
}

// USelectBitmapInto is the alternative physical implementation of uselect
// used in early iterations: instead of materializing qualifying oids it
// sets their bits in bm, which must already be sized to the domain and
// all-clear (the caller's Reuse or New provides that; not clearing here
// avoids a second O(n/64) zeroing pass per pruning step). Only valid for
// void-headed inputs (positional correspondence); it panics otherwise.
func USelectBitmapInto(bm *bitmap.Bitmap, b *Float, lo, hi float64) {
	if !b.IsVoid() {
		panic("bat: USelectBitmap requires a void head")
	}
	for i, v := range b.Tail {
		if v >= lo && v <= hi {
			bm.Set(b.Base + i)
		}
	}
}

// JoinFloatInto implements C.reverse.join(Hi) for a candidate oid list C
// and a void-headed dimension table Hi: a positional gather of Hi's tail
// values at the candidate oids into dst, which must be at least as long as
// c. The result stays aligned with C, so later additions over reduced
// tables stay positional. It panics if hi's head is not void or an oid is
// out of range.
func JoinFloatInto(dst []float64, c *OID, hi *Float) {
	if !hi.IsVoid() {
		panic("bat: JoinFloat requires a void-headed dimension table")
	}
	dst = dst[:len(c.Tail)]
	for i, oid := range c.Tail {
		idx := oid - hi.Base
		if idx < 0 || idx >= len(hi.Tail) {
			panic(fmt.Sprintf("bat: oid %d outside table range", oid))
		}
		dst[i] = hi.Tail[idx]
	}
}

// SelectFloatInto reduces a void-headed float BAT to the tuples whose head
// oid has its bit set in the bitmap: it appends their tail values to dst
// and returns the extended slice. It panics if b's head is not void.
func SelectFloatInto(dst []float64, b *Float, bm *bitmap.Bitmap) []float64 {
	if !b.IsVoid() {
		panic("bat: SelectFloat requires a void head")
	}
	bm.ForEach(func(oid int) {
		idx := oid - b.Base
		if idx >= 0 && idx < len(b.Tail) {
			dst = append(dst, b.Tail[idx])
		}
	})
	return dst
}

// Package bat implements Binary Association Tables and the Monet
// Interpreter Language (MIL) operators that the paper's Section 6 uses to
// express BOND inside a relational engine.
//
// A BAT is a two-column table of (head, tail) pairs. As in Monet, a head
// can be "void": a densely ascending sequence of virtual object identifiers
// that is never materialized, enabling positional lookups and saving a
// third of the storage (paper footnote 4). The operators provided are the
// ones in the Section 6.1 listing:
//
//   - map operators with a constant ([min](Hi, const qi) and the squared-
//     difference map used for Euclidean distance),
//   - the multi-join map [+] that positionally adds aligned score columns,
//   - kfetch: the k-th largest/smallest tail value via a bounded heap,
//   - uselect: the unary range select, returning qualifying heads with a
//     void result tail, or alternatively a bitmap (the optimization for
//     low-selectivity early iterations),
//   - reverse and the positional join used to reduce the remaining
//     dimension tables to the candidate set.
package bat

import (
	"fmt"
	"math"

	"bond/internal/bitmap"
	"bond/internal/topk"
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

// NewOIDVoid returns an oid BAT with a void head starting at base.
func NewOIDVoid(base int, tail []int) *OID {
	return &OID{Base: base, Tail: tail}
}

// Len returns the number of tuples.
func (b *Float) Len() int { return len(b.Tail) }

// Len returns the number of tuples.
func (b *OID) Len() int { return len(b.Tail) }

// HeadAt returns the head value of tuple i.
func (b *Float) HeadAt(i int) int {
	if b.Head == nil {
		return b.Base + i
	}
	return b.Head[i]
}

// HeadAt returns the head value of tuple i.
func (b *OID) HeadAt(i int) int {
	if b.Head == nil {
		return b.Base + i
	}
	return b.Head[i]
}

// IsVoid reports whether the head is a dense virtual sequence.
func (b *Float) IsVoid() bool { return b.Head == nil }

// IsVoid reports whether the head is a dense virtual sequence.
func (b *OID) IsVoid() bool { return b.Head == nil }

// MapMinConst implements [min](b, const q): tail'[i] = min(tail[i], q),
// preserving the head. This is the per-dimension histogram-intersection
// contribution of the Section 6.1 listing, step 1.
func MapMinConst(b *Float, q float64) *Float {
	out := &Float{Head: b.Head, Base: b.Base, Tail: make([]float64, len(b.Tail))}
	MapMinConstInto(out.Tail, b.Tail, q)
	return out
}

// MapMinConstInto is the buffer-reusing physical form of MapMinConst:
// dst[i] = min(src[i], q). dst must be at least as long as src.
func MapMinConstInto(dst, src []float64, q float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Min(v, q)
	}
}

// MapSqDiffConst implements the Euclidean analogue of step 1:
// tail'[i] = (tail[i] − q)².
func MapSqDiffConst(b *Float, q float64) *Float {
	out := &Float{Head: b.Head, Base: b.Base, Tail: make([]float64, len(b.Tail))}
	for i, v := range b.Tail {
		d := v - q
		out.Tail[i] = d * d
	}
	return out
}

// MultiAdd implements the multi-join map [+](D1, …, Dm): an implicit
// positional equi-join on aligned heads followed by addition. All inputs
// must have equal length and identical (void) alignment; the paper notes
// that because the tables are aligned, a positional join with negligible
// cost is chosen. It panics on misaligned inputs.
func MultiAdd(bs ...*Float) *Float {
	if len(bs) == 0 {
		panic("bat: MultiAdd needs at least one input")
	}
	n := bs[0].Len()
	for _, b := range bs {
		if b.Len() != n {
			panic(fmt.Sprintf("bat: MultiAdd length mismatch %d vs %d", b.Len(), n))
		}
		if !aligned(bs[0], b) {
			panic("bat: MultiAdd inputs not aligned")
		}
	}
	out := &Float{Head: bs[0].Head, Base: bs[0].Base, Tail: make([]float64, n)}
	for _, b := range bs {
		for i, v := range b.Tail {
			out.Tail[i] += v
		}
	}
	return out
}

// AddInto accumulates src into dst positionally (dst += src), the in-place
// variant of MultiAdd the iterative algorithm uses between pruning steps.
// It panics on misaligned inputs.
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

// KFetch implements kfetch(k): the k-th largest (largest=true) or k-th
// smallest tail value, computed with a bounded heap in O(n log k) as in the
// paper. It panics on an empty BAT; k larger than Len clamps.
func KFetch(b *Float, k int, largest bool) float64 {
	kth := topk.KthSmallest
	if largest {
		kth = topk.KthLargest
	}
	v, _ := kth(b.Tail, k, nil)
	return v
}

// USelect implements the unary range select: it returns the heads of the
// tuples whose tail value lies in [lo, hi], with the result's tail left
// void (a densely ascending range of virtual oids), exactly as described
// in Section 6.1.
func USelect(b *Float, lo, hi float64) *OID {
	// The "result tail" is void; we return the heads as the materialized
	// column of an [oid, void] BAT, represented tail-first after Reverse.
	return &OID{Base: 0, Tail: USelectInto(nil, b, lo, hi)}
}

// USelectInto is the buffer-reusing physical form of USelect: it appends
// the qualifying heads to dst and returns the extended slice.
func USelectInto(dst []int, b *Float, lo, hi float64) []int {
	for i, v := range b.Tail {
		if v >= lo && v <= hi {
			dst = append(dst, b.HeadAt(i))
		}
	}
	return dst
}

// USelectBitmap is the alternative physical implementation of uselect used
// in early iterations: instead of materializing qualifying oids it sets
// their bits in a bitmap of domain size n. Only valid for void-headed
// inputs (positional correspondence). It panics otherwise.
func USelectBitmap(b *Float, lo, hi float64, n int) *bitmap.Bitmap {
	bm := bitmap.New(n)
	USelectBitmapInto(bm, b, lo, hi)
	return bm
}

// USelectBitmapInto is USelectBitmap reusing a caller-provided result
// bitmap, which must already be sized to the domain and all-clear (the
// caller's Reuse or New provides that; not clearing here avoids a second
// O(n/64) zeroing pass per pruning step).
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

// JoinFloat implements C.reverse.join(Hi) for a candidate oid list C and a
// void-headed dimension table Hi: a positional gather of Hi's tail values
// at the candidate oids. The result keeps a void head aligned with C, so
// subsequent MultiAdds over reduced tables stay positional. It panics if
// hi's head is not void or an oid is out of range.
func JoinFloat(c *OID, hi *Float) *Float {
	out := &Float{Base: 0, Tail: make([]float64, len(c.Tail))}
	JoinFloatInto(out.Tail, c, hi)
	return out
}

// JoinFloatInto is the buffer-reusing physical form of JoinFloat: the
// gathered tail values are written into dst, which must be at least as
// long as c.
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

// GatherFloat positionally gathers values of a void-headed BAT at the
// given oids, the kernel shared by JoinFloat and bitmap-driven reduction.
func GatherFloat(hi *Float, oids []int) *Float {
	return JoinFloat(&OID{Tail: oids}, hi)
}

// SelectFloat reduces a float BAT to the tuples whose head oid has its bit
// set in the bitmap, rebasing the result onto a void head. The input must
// be void-headed.
func SelectFloat(b *Float, bm *bitmap.Bitmap) *Float {
	return &Float{Base: 0, Tail: SelectFloatInto(make([]float64, 0, bm.Count()), b, bm)}
}

// SelectFloatInto is the buffer-reusing physical form of SelectFloat: it
// appends the selected tail values to dst and returns the extended slice.
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

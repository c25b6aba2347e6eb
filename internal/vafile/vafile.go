// Package vafile implements the Vector Approximation File of Weber,
// Schek and Blott [22], the comparator of the paper's Table 4.
//
// A VA-File stores, row-major, a small fixed-width approximation of every
// feature vector (here the same 8-bit-per-dimension codes that compressed
// BOND uses, so the two methods filter from identical information). A
// query is answered in two steps: a filter scan over the approximations
// computes per-vector lower and upper bounds on the score and keeps every
// vector whose lower bound does not exceed the k-th best upper bound, and
// a refinement step fetches the exact vectors of the survivors to produce
// the final answer. The filter is fast because it reads 8 bits instead of
// 64 per coefficient; correctness follows because the cell bounds bracket
// the true score, so no true neighbor is ever dropped.
package vafile

import (
	"fmt"

	"bond/internal/kernel"
	"bond/internal/quant"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// File is a built VA-File: row-major codes over a collection.
type File struct {
	q    *quant.Quantizer
	dims int
	n    int
	// codes[id*dims+d] is the approximation of coefficient d of vector id.
	codes []uint8
}

// Build constructs a VA-File over a row-major collection.
// It panics on ragged input.
func Build(vectors [][]float64, q *quant.Quantizer) *File {
	if len(vectors) == 0 {
		panic("vafile: Build on empty collection")
	}
	dims := len(vectors[0])
	f := &File{q: q, dims: dims, n: len(vectors), codes: make([]uint8, len(vectors)*dims)}
	for id, v := range vectors {
		if len(v) != dims {
			panic(fmt.Sprintf("vafile: ragged vector %d", id))
		}
		base := id * dims
		for d, x := range v {
			f.codes[base+d] = q.Encode(x)
		}
	}
	return f
}

// BuildFromStore constructs a VA-File from a decomposed store (reading the
// columns once).
func BuildFromStore(s *vstore.Store, q *quant.Quantizer) *File {
	f := &File{q: q, dims: s.Dims(), n: s.Len(), codes: make([]uint8, s.Len()*s.Dims())}
	for d := 0; d < s.Dims(); d++ {
		col := s.Column(d)
		for id, x := range col {
			f.codes[id*f.dims+d] = q.Encode(x)
		}
	}
	return f
}

// FromRowCodes wraps an already row-major code array as a VA-File without
// copying — the path by which a sealed segment's cached codes become a
// per-segment access path of the query planner with no re-encoding. The
// codes slice is aliased and must not be mutated; it panics when its
// length is not n·dims.
func FromRowCodes(q *quant.Quantizer, n, dims int, codes []uint8) *File {
	if len(codes) != n*dims {
		panic(fmt.Sprintf("vafile: %d codes for %d × %d", len(codes), n, dims))
	}
	return &File{q: q, dims: dims, n: n, codes: codes}
}

// Len returns the number of vectors.
func (f *File) Len() int { return f.n }

// Quantizer returns the quantizer the codes were built with.
func (f *File) Quantizer() *quant.Quantizer { return f.q }

// Dims returns the dimensionality.
func (f *File) Dims() int { return f.dims }

// Stats reports the work of a VA-File search.
type Stats struct {
	// CodesScanned counts approximation cells read in the filter step.
	CodesScanned int64
	// Candidates is the number of vectors surviving the filter.
	Candidates int
	// RefineValuesScanned counts exact coefficients read in refinement.
	RefineValuesScanned int64
}

// FilterEuclidean scans the approximations and returns the ids that may be
// among the k nearest neighbors of q (squared Euclidean distance), plus
// the per-candidate lower bounds.
func (f *File) FilterEuclidean(q []float64, k int) (ids []int, lowers []float64, st Stats) {
	f.checkQuery(q, k)
	lb := make([]float64, f.n)
	ub := make([]float64, f.n)
	for id := 0; id < f.n; id++ {
		base := id * f.dims
		var l, u float64
		for d := 0; d < f.dims; d++ {
			lo, hi := f.q.SqDistBounds(f.codes[base+d], q[d])
			l += lo
			u += hi
		}
		lb[id], ub[id] = l, u
		st.CodesScanned += int64(f.dims)
	}
	kappa, _ := topk.KthSmallest(ub, min(k, f.n), nil)
	for id := 0; id < f.n; id++ {
		if lb[id] <= kappa {
			ids = append(ids, id)
			lowers = append(lowers, lb[id])
		}
	}
	st.Candidates = len(ids)
	return ids, lowers, st
}

// FilterHistogram is the histogram-intersection analogue: it keeps every
// vector whose upper bound reaches the k-th largest lower bound.
func (f *File) FilterHistogram(q []float64, k int) (ids []int, uppers []float64, st Stats) {
	f.checkQuery(q, k)
	lb := make([]float64, f.n)
	ub := make([]float64, f.n)
	for id := 0; id < f.n; id++ {
		base := id * f.dims
		var l, u float64
		for d := 0; d < f.dims; d++ {
			lo, hi := f.q.MinIntersectBounds(f.codes[base+d], q[d])
			l += lo
			u += hi
		}
		lb[id], ub[id] = l, u
		st.CodesScanned += int64(f.dims)
	}
	kappa, _ := topk.KthLargest(lb, min(k, f.n), nil)
	for id := 0; id < f.n; id++ {
		if ub[id] >= kappa {
			ids = append(ids, id)
			uppers = append(uppers, ub[id])
		}
	}
	st.Candidates = len(ids)
	return ids, uppers, st
}

// Table is the per-query cell-bound lookup table of a VA-File filter:
// row d holds, interleaved, the lower and upper score contribution of
// every possible code of dimension d. The bounds depend only on the
// quantizer and the query — not on any particular file — so one Table
// built per query serves every segment of a collection, and the filter
// scan itself is two table loads and two adds per cell. That is what
// lets an 8-bit filter run close to the exact scan's per-cell speed
// while touching an eighth of the bytes.
type Table struct {
	dims     int
	levels   int
	qlo, qhi float64 // quantizer range the table was built for
	// lo[d*256+c] and hi[d*256+c] are the lower and upper contribution of
	// code c in dimension d. Separate arrays: the Euclidean filter scans
	// them in separate passes.
	lo, hi []float64
}

// NewEuclideanTable builds the squared-distance bound table for q: the
// lower bound is the squared distance to the nearer cell edge (zero
// inside the cell), the upper bound to the farther edge.
func NewEuclideanTable(qz *quant.Quantizer, q []float64) *Table {
	return new(Table).BuildEuclidean(qz, q)
}

// BuildEuclidean rebuilds t as the squared-distance bound table for q in
// place, reusing the bound arrays — the pooled counterpart of
// NewEuclideanTable for per-query use on the hot path. It returns t.
func (t *Table) BuildEuclidean(qz *quant.Quantizer, q []float64) *Table {
	t.reset(qz, len(q))
	for d, qd := range q {
		row := d * 256
		for c := 0; c < qz.Levels; c++ {
			cl := qz.CellLower(uint8(c))
			cu := qz.CellUpper(uint8(c))
			var lo float64
			if qd < cl {
				lo = (cl - qd) * (cl - qd)
			} else if qd > cu {
				lo = (qd - cu) * (qd - cu)
			}
			dl, du := qd-cl, cu-qd
			if dl < 0 {
				dl = -dl
			}
			if du < 0 {
				du = -du
			}
			m := dl
			if du > m {
				m = du
			}
			t.lo[row+c] = lo
			t.hi[row+c] = m * m
		}
	}
	return t
}

// NewHistogramTable builds the min-intersection bound table for q.
func NewHistogramTable(qz *quant.Quantizer, q []float64) *Table {
	return new(Table).BuildHistogram(qz, q)
}

// BuildHistogram rebuilds t as the min-intersection bound table for q in
// place, reusing the bound arrays. It returns t.
func (t *Table) BuildHistogram(qz *quant.Quantizer, q []float64) *Table {
	t.reset(qz, len(q))
	for d, qd := range q {
		row := d * 256
		for c := 0; c < qz.Levels; c++ {
			lo := qz.CellLower(uint8(c))
			hi := qz.CellUpper(uint8(c))
			if lo > qd {
				lo = qd
			}
			if hi > qd {
				hi = qd
			}
			t.lo[row+c] = lo
			t.hi[row+c] = hi
		}
	}
	return t
}

func (t *Table) reset(qz *quant.Quantizer, dims int) {
	t.dims, t.levels, t.qlo, t.qhi = dims, qz.Levels, qz.Lo, qz.Hi
	// Entries above qz.Levels are left stale on reuse; Encode clamps every
	// code below Levels, so the filter scans never read them.
	if cap(t.lo) < dims*256 {
		t.lo = make([]float64, dims*256)
		t.hi = make([]float64, dims*256)
	} else {
		t.lo = t.lo[:dims*256]
		t.hi = t.hi[:dims*256]
	}
}

// Fits reports whether the table can bound this file's codes: same
// dimensionality and an identical quantization grid.
func (t *Table) Fits(f *File) bool {
	return t != nil && t.dims == f.dims && t.levels == f.q.Levels && t.qlo == f.q.Lo && t.qhi == f.q.Hi
}

// Scratch holds the reusable buffers of a live filter scan: the running-κ
// heap, the recorded candidate rows with their selective bounds, and the
// final candidate id list. A zero Scratch is ready to use; passing the
// same Scratch to successive filter calls makes them allocation-free. The
// id slice a filter returns aliases the scratch and is valid only until
// the next call that uses it.
type Scratch struct {
	heap   *topk.Heap
	cands  []int
	bounds []float64
	ids    []int
}

func (sc *Scratch) reset(k int, largest bool) {
	if sc.heap == nil {
		sc.heap = topk.NewLargest(k)
	}
	sc.heap.Reset(k, largest)
	sc.cands = sc.cands[:0]
	sc.bounds = sc.bounds[:0]
	sc.ids = sc.ids[:0]
}

// FilterEuclideanLiveScratch is FilterEuclidean restricted to live
// vectors: skip (which may be nil) reports ids the filter must ignore —
// delete marks or a prior selection predicate — so the planner can run the
// VA-File over a segment with tombstones and still return exact answers.
// Skipped ids cost no code reads. tbl must be a NewEuclideanTable for the
// same query and quantization grid (it panics otherwise).
//
// The filter is the near-optimal single-pass algorithm of Weber et al.:
// scan only the selective lower bound — one table load and add per cell
// — and keep a running heap of the k smallest upper bounds. The upper
// bound of a row is computed only when its lower bound clears the
// running κ, which after the first rows almost never happens, so the
// scan touches one bound array instead of two. κ only tightens during
// the scan, so every row that could qualify under the final κ is
// recorded, and a last sweep over the recorded rows with the final κ
// yields exactly the candidates a two-full-pass filter would: no true
// neighbor is ever dropped.
//
// sc holds the scan's buffers (nil allocates privately); the returned ids
// alias it.
func (f *File) FilterEuclideanLiveScratch(tbl *Table, q []float64, k int, skip func(id int) bool, sc *Scratch) (ids []int, st Stats) {
	f.checkQuery(q, k)
	if !tbl.Fits(f) {
		panic("vafile: bound table does not fit this file")
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.reset(k, false)
	h := sc.heap
	for id := 0; id < f.n; id++ {
		if skip != nil && skip(id) {
			continue
		}
		row := f.codes[id*f.dims : (id+1)*f.dims]
		lb := kernel.VARowSum(tbl.lo, row)
		st.CodesScanned += int64(f.dims)
		if kth, full := h.Threshold(); full && lb > kth {
			continue
		}
		st.CodesScanned += int64(f.dims)
		h.Push(id, kernel.VARowSum(tbl.hi, row))
		sc.cands = append(sc.cands, id)
		sc.bounds = append(sc.bounds, lb)
	}
	if len(sc.cands) == 0 {
		return nil, st
	}
	kappa, full := h.Threshold()
	for i, id := range sc.cands {
		if !full || sc.bounds[i] <= kappa {
			sc.ids = append(sc.ids, id)
		}
	}
	st.Candidates = len(sc.ids)
	return sc.ids, st
}

// FilterHistogramLiveScratch is the histogram-intersection analogue of
// FilterEuclideanLiveScratch, with the bound roles mirrored: the upper
// bound is the selective one scanned for every row, and a row's lower
// bound joins the κ heap (k largest lower bounds) only when the row's
// upper bound still clears the running κ. sc holds the scan's buffers (nil
// allocates privately); the returned ids alias it.
func (f *File) FilterHistogramLiveScratch(tbl *Table, q []float64, k int, skip func(id int) bool, sc *Scratch) (ids []int, st Stats) {
	f.checkQuery(q, k)
	if !tbl.Fits(f) {
		panic("vafile: bound table does not fit this file")
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.reset(k, true)
	h := sc.heap
	for id := 0; id < f.n; id++ {
		if skip != nil && skip(id) {
			continue
		}
		row := f.codes[id*f.dims : (id+1)*f.dims]
		ub := kernel.VARowSum(tbl.hi, row)
		st.CodesScanned += int64(f.dims)
		if kth, full := h.Threshold(); full && ub < kth {
			continue
		}
		st.CodesScanned += int64(f.dims)
		h.Push(id, kernel.VARowSum(tbl.lo, row))
		sc.cands = append(sc.cands, id)
		sc.bounds = append(sc.bounds, ub)
	}
	if len(sc.cands) == 0 {
		return nil, st
	}
	kappa, full := h.Threshold()
	for i, id := range sc.cands {
		if !full || sc.bounds[i] >= kappa {
			sc.ids = append(sc.ids, id)
		}
	}
	st.Candidates = len(sc.ids)
	return sc.ids, st
}

// SearchEuclidean runs filter plus refinement against the exact vectors
// and returns the true k nearest neighbors.
func (f *File) SearchEuclidean(vectors [][]float64, q []float64, k int) ([]topk.Result, Stats) {
	ids, _, st := f.FilterEuclidean(q, k)
	h := topk.NewSmallest(min(k, f.n))
	for _, id := range ids {
		v := vectors[id]
		s := 0.0
		for d, x := range v {
			diff := x - q[d]
			s += diff * diff
		}
		st.RefineValuesScanned += int64(f.dims)
		h.Push(id, s)
	}
	return h.Results(), st
}

// SearchHistogram runs filter plus refinement for histogram intersection.
func (f *File) SearchHistogram(vectors [][]float64, q []float64, k int) ([]topk.Result, Stats) {
	ids, _, st := f.FilterHistogram(q, k)
	h := topk.NewLargest(min(k, f.n))
	for _, id := range ids {
		v := vectors[id]
		s := 0.0
		for d, x := range v {
			if x < q[d] {
				s += x
			} else {
				s += q[d]
			}
		}
		st.RefineValuesScanned += int64(f.dims)
		h.Push(id, s)
	}
	return h.Results(), st
}

func (f *File) checkQuery(q []float64, k int) {
	if len(q) != f.dims {
		panic(fmt.Sprintf("vafile: query dims %d != file dims %d", len(q), f.dims))
	}
	if k < 1 {
		panic(fmt.Sprintf("vafile: k must be >= 1, got %d", k))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

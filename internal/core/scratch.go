package core

import (
	"bond/internal/bitmap"
	"bond/internal/metric"
	"bond/internal/topk"
)

// Scratch holds every reusable buffer one search needs: candidate ids,
// partial scores and tails, pruning staging, tail-bound state, kfetch and
// ranking heaps, and the MIL engine's operator buffers. One Scratch serves
// one search at a time; the query executor keeps a small per-collection
// free list and runs each segment's step through the same Scratch, so a
// steady-state query allocates nothing in the engine layer.
//
// A nil *Scratch is accepted by every entry point that takes one and means
// "allocate privately".
//
// The pooling contract: buffers handed out of a scratch-backed call
// (result lists, candidate ids, step logs) alias the Scratch and are valid
// only until the next call that uses the same Scratch. Anything that
// outlives the query — the merged results and statistics the caller
// receives — must be copied out first, which the plan executor does
// exactly once per query.
type Scratch struct {
	eng engine // the BOND engine state itself, reused across segments

	order   []int
	cands   []int
	score   []float64
	tails   []float64
	aux     []float64 // Smin/Smax staging inside one pruning step
	keep    []bool
	qtail   []float64
	wtail   []float64
	steps   []StepStat    // pruning-step log backing (engine, filter, MIL)
	results []topk.Result // per-segment result staging

	kth *topk.Heap // kfetch heap (κ selection inside pruning steps)
	out *topk.Heap // final ranking heap

	euc metric.EucTail      // pooled Euclidean tail bounds
	wt  metric.WeightedTail // pooled weighted tail bounds

	// Compressed-filter score intervals.
	sLo, sHi []float64

	// MIL operator buffers: the full-length score column, the candidate
	// bitmap and the uselect result bitmap, ping-pong id/score columns for
	// the positional phase, and the per-column gather target.
	milScore  []float64
	milBM     *bitmap.Bitmap
	milSel    *bitmap.Bitmap
	milIDs    []int
	milIDs2   []int
	milVals   []float64
	milVals2  []float64
	milGather []float64
}

// grow returns s with length 0 and capacity at least n, reusing the
// backing array when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// zeroed returns s resized to exactly n zero values, reusing the backing
// array when possible.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// kthHeap returns the pooled kfetch heap (mode set by the caller through
// topk.KthLargestWith / KthSmallestWith).
func (sc *Scratch) kthHeap() *topk.Heap {
	if sc.kth == nil {
		sc.kth = topk.NewLargest(1)
	}
	return sc.kth
}

// outHeap returns the pooled ranking heap reset to keep the k best.
func (sc *Scratch) outHeap(k int, largest bool) *topk.Heap {
	if sc.out == nil {
		sc.out = topk.NewLargest(k)
	}
	sc.out.Reset(k, largest)
	return sc.out
}

// deletedViewer is the optional Source refinement that exposes the delete
// marks without copying; the hot path uses it to avoid a bitmap clone per
// segment per query.
type deletedViewer interface {
	DeletedView() *bitmap.Bitmap
}

// deletedOf returns the source's delete marks, without a copy when the
// source supports it. The result must be treated as read-only and not
// retained past the search (the engine only reads it while initializing
// its candidate set, under the collection's lock).
func deletedOf(s Source) *bitmap.Bitmap {
	if v, ok := s.(deletedViewer); ok {
		return v.DeletedView()
	}
	return s.DeletedBitmap()
}

// DeletedView exposes deletedOf to the plan executor: a source's delete
// marks without a copy when the source supports it (read-only, not to be
// retained past the query).
func DeletedView(s Source) *bitmap.Bitmap { return deletedOf(s) }

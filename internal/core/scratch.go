package core

import (
	"math/bits"

	"bond/internal/bitmap"
	"bond/internal/metric"
	"bond/internal/topk"
)

// Scratch holds every reusable buffer one per-segment search needs:
// candidate ids, partial scores and tails, pruning staging, the kfetch
// buffer (a bare []float64 of O(k) values, see package topk), the ranking
// heap, and the compressed filter's staging.
// What depends on the query alone lives in Query instead. One Scratch
// serves one search at a time; the query executor keeps a small
// per-collection free list and runs each segment's step through the same
// Scratch, so a steady-state query allocates nothing in the engine layer.
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

	cands     []int
	score     []float64
	tails     []float64
	cols      [][]float64 // one dense step's columns, cleared after the fold
	aux       []float64   // Smin/Smax staging inside one pruning step
	rows      []int       // the rows finish ranks, and their scores
	rowScores []float64
	kbuf      []float64     // kfetch buffer (κ selection inside pruning steps)
	steps     []StepStat    // pruning-step log backing (engine, filter)
	results   []topk.Result // per-segment result staging

	out *topk.Heap // final ranking heap

	// Compressed-filter staging (its order and tail bounds are rebuilt
	// per segment; it does not run under a carried κ).
	order   []int
	keep    []bool
	qtail   []float64
	euc     metric.EucTail
	orderSc orderScratch // buildOrderInto's sort staging

	// Compressed-filter score intervals.
	sLo, sHi []float64
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

// outHeap returns the pooled ranking heap reset to keep the k best.
func (sc *Scratch) outHeap(k int, largest bool) *topk.Heap {
	if sc.out == nil {
		sc.out = topk.NewLargest(k)
	}
	sc.out.Reset(k, largest)
	return sc.out
}

// liveWords returns the mark words whose union rules ids of src out:
// delete marks and the exclusion bitmap (nil for none). Ids past the end of
// the exclusion bitmap are not excluded (it may predate concurrent appends).
func liveWords(src Source, exclude *bitmap.Bitmap) (dead, excl []uint64) {
	dead = deletedOf(src).Words()
	if exclude != nil {
		excl = exclude.Words()
	}
	return dead, excl
}

// liveWord is the w-th 64-id word of a source of n slots with a set bit per
// id that is neither delete-marked nor excluded.
func liveWord(dead, excl []uint64, w, n int) uint64 {
	var marks uint64
	if w < len(dead) {
		marks = dead[w]
	}
	if w < len(excl) {
		marks |= excl[w]
	}
	live := ^marks
	if rest := n - 64*w; rest < 64 {
		live &= 1<<uint(rest) - 1
	}
	return live
}

// countLive returns how many ids of src are neither delete-marked nor
// excluded.
func countLive(src Source, exclude *bitmap.Bitmap) int {
	n := src.Len()
	dead, excl := liveWords(src, exclude)
	live := 0
	for w := 0; 64*w < n; w++ {
		live += bits.OnesCount64(liveWord(dead, excl, w, n))
	}
	return live
}

// markDead stores none in the score of every delete-marked or excluded row
// of src: the dense phase's way of leaving them out.
func markDead(src Source, exclude *bitmap.Bitmap, score []float64, none float64) {
	n := src.Len()
	dead, excl := liveWords(src, exclude)
	for w := 0; 64*w < n; w++ {
		marks := ^liveWord(dead, excl, w, n)
		if rest := n - 64*w; rest < 64 {
			marks &= 1<<uint(rest) - 1
		}
		for ; marks != 0; marks &= marks - 1 {
			score[64*w+bits.TrailingZeros64(marks)] = none
		}
	}
}

// liveCandidates fills the candidate buffer with the ids of src that are
// neither delete-marked nor excluded, a bitmap word at a time: 64 ids with
// no mark among them are an identity fill.
func (sc *Scratch) liveCandidates(src Source, exclude *bitmap.Bitmap) []int {
	n := src.Len()
	cands := grow(sc.cands, n)[:n]
	dead, excl := liveWords(src, exclude)
	out := 0
	for base := 0; base < n; base += 64 {
		live := liveWord(dead, excl, base/64, n)
		if live == ^uint64(0) {
			for i := range cands[out : out+64] {
				cands[out+i] = base + i
			}
			out += 64
			continue
		}
		for ; live != 0; live &= live - 1 {
			cands[out] = base + bits.TrailingZeros64(live)
			out++
		}
	}
	sc.cands = cands[:out]
	return sc.cands
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

// Package topk provides bounded-size heap utilities for k-best selection.
//
// Two kinds of heap live here. Heap retains the k best (id, score) results
// with a deterministic score-then-id order; it ranks answers and merges
// per-segment lists. KthLargest/KthSmallest are the paper's kfetch operator
// (Section 6.1), which only needs the k-th *value* of a score column: a
// value-only bounded heap with no ids and no tie-break — still the paper's
// O(n log k) in the worst case, one compare per element in the common one.
package topk

import (
	"fmt"
	"slices"
	"sort"
)

// Result is a scored item: an object identifier paired with its score.
type Result struct {
	ID    int
	Score float64
}

// ByScoreDesc sorts results by decreasing score, breaking ties by
// increasing ID so orderings are deterministic.
type ByScoreDesc []Result

func (r ByScoreDesc) Len() int      { return len(r) }
func (r ByScoreDesc) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r ByScoreDesc) Less(i, j int) bool {
	if r[i].Score != r[j].Score {
		return r[i].Score > r[j].Score
	}
	return r[i].ID < r[j].ID
}

// ByScoreAsc sorts results by increasing score, breaking ties by
// increasing ID.
type ByScoreAsc []Result

func (r ByScoreAsc) Len() int      { return len(r) }
func (r ByScoreAsc) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r ByScoreAsc) Less(i, j int) bool {
	if r[i].Score != r[j].Score {
		return r[i].Score < r[j].Score
	}
	return r[i].ID < r[j].ID
}

// Heap is a bounded-size heap that retains the k best results seen so far.
// Depending on the mode it keeps the k largest scores (a min-heap on score,
// used for similarity search) or the k smallest scores (a max-heap on score,
// used for distance search).
type Heap struct {
	k        int
	largest  bool // true: keep k largest; false: keep k smallest
	items    []Result
	overflow bool // true once more than k items have been offered
}

// NewLargest returns a heap retaining the k results with the largest scores.
// It panics if k < 1.
func NewLargest(k int) *Heap {
	if k < 1 {
		panic(fmt.Sprintf("topk: k must be >= 1, got %d", k))
	}
	return &Heap{k: k, largest: true, items: make([]Result, 0, k)}
}

// NewSmallest returns a heap retaining the k results with the smallest
// scores. It panics if k < 1.
func NewSmallest(k int) *Heap {
	if k < 1 {
		panic(fmt.Sprintf("topk: k must be >= 1, got %d", k))
	}
	return &Heap{k: k, largest: false, items: make([]Result, 0, k)}
}

// Reset reinitializes the heap in place for a new selection of the k best
// under the given mode, reusing the retained-items buffer — the pooled
// counterpart of NewLargest/NewSmallest. It panics if k < 1.
func (h *Heap) Reset(k int, largest bool) {
	if k < 1 {
		panic(fmt.Sprintf("topk: k must be >= 1, got %d", k))
	}
	h.k = k
	h.largest = largest
	h.items = h.items[:0]
	h.overflow = false
}

// K returns the heap's configured capacity.
func (h *Heap) K() int { return h.k }

// Len returns the number of results currently retained (at most k).
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether the heap holds k results.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// worse reports whether result a ranks strictly behind result b under the
// heap's mode: by score first (for a "largest" heap smaller scores are
// worse, for a "smallest" heap larger scores are worse), then by id —
// among equal scores the larger id is worse. The id tie-break makes the
// retained set a unique function of the offered results, independent of
// push order, which is what lets a per-segment search merge to exactly
// the same answer as a flat scan.
func (h *Heap) worse(a, b Result) bool {
	if a.Score != b.Score {
		if h.largest {
			return a.Score < b.Score
		}
		return a.Score > b.Score
	}
	return a.ID > b.ID
}

// Push offers a result to the heap. It returns true if the result was
// retained (it is currently among the k best).
func (h *Heap) Push(id int, score float64) bool {
	it := Result{ID: id, Score: score}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.siftUp(len(h.items) - 1)
		return true
	}
	h.overflow = true
	// Root is the current worst of the k best.
	if !h.worse(h.items[0], it) {
		return false
	}
	h.items[0] = it
	h.siftDown(0)
	return true
}

// Threshold returns the score of the current k-th best result (the worst
// retained score). The boolean is false until the heap is full, in which
// case no pruning threshold is available yet.
func (h *Heap) Threshold() (float64, bool) {
	if len(h.items) < h.k {
		return 0, false
	}
	return h.items[0].Score, true
}

// WouldAccept reports whether a result with the given score could displace
// the current k-th best (or whether the heap still has room). A score
// equal to the threshold answers true, since an id smaller than the
// root's would be retained.
func (h *Heap) WouldAccept(score float64) bool {
	if len(h.items) < h.k {
		return true
	}
	if score == h.items[0].Score {
		return true
	}
	if h.largest {
		return score > h.items[0].Score
	}
	return score < h.items[0].Score
}

// Results returns the retained results sorted best-first: decreasing score
// for a "largest" heap, increasing score for a "smallest" heap. The heap is
// not modified.
func (h *Heap) Results() []Result {
	return h.AppendResults(make([]Result, 0, len(h.items)))
}

// AppendResults appends the retained results, sorted best-first, to dst and
// returns the extended slice — the allocation-free counterpart of Results
// for callers bringing their own buffer. The heap is not modified.
func (h *Heap) AppendResults(dst []Result) []Result {
	start := len(dst)
	dst = append(dst, h.items...)
	out := dst[start:]
	if h.largest {
		slices.SortFunc(out, func(a, b Result) int {
			if a.Score != b.Score {
				if a.Score > b.Score {
					return -1
				}
				return 1
			}
			return a.ID - b.ID
		})
	} else {
		slices.SortFunc(out, func(a, b Result) int {
			if a.Score != b.Score {
				if a.Score < b.Score {
					return -1
				}
				return 1
			}
			return a.ID - b.ID
		})
	}
	return dst
}

// siftUp restores the heap property after appending at index i.
func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		worst := i
		if left < n && h.worse(h.items[left], h.items[worst]) {
			worst = left
		}
		if right < n && h.worse(h.items[right], h.items[worst]) {
			worst = right
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// KthLargest returns the k-th largest value in xs — the paper's kfetch
// (Section 6.1). The k-th value does not depend on which element carries
// it, so unlike Heap this keeps no ids and breaks no ties: a bounded
// min-heap of bare float64s in buf (grown as needed and returned for reuse;
// nil allocates). An element no larger than the root — the common case —
// costs one compare; the worst case (ascending input) is O(n log k). If k
// exceeds len(xs) it returns the minimum of xs. It panics if xs is empty
// or k < 1.
func KthLargest(xs []float64, k int, buf []float64) (float64, []float64) {
	h := kthHeap(xs, k, buf, 1)
	top := h[0]
	for _, x := range xs[len(h):] {
		if x > top {
			h[0] = x
			siftDownMin(h, 0)
			top = h[0]
		}
	}
	return top, h
}

// KthSmallest is KthLargest for the k-th smallest value (the maximum of xs
// if k exceeds len(xs)). The heap holds negated values, so both directions
// share one sift.
func KthSmallest(xs []float64, k int, buf []float64) (float64, []float64) {
	h := kthHeap(xs, k, buf, -1)
	top := -h[0]
	for _, x := range xs[len(h):] {
		if x < top {
			h[0] = -x
			siftDownMin(h, 0)
			top = -h[0]
		}
	}
	return top, h
}

// kthHeap heapifies sign·xs[:k] (k clamped to len(xs)) into buf as a
// min-heap.
func kthHeap(xs []float64, k int, buf []float64, sign float64) []float64 {
	if len(xs) == 0 {
		panic("topk: k-th value of an empty slice")
	}
	if k < 1 {
		panic(fmt.Sprintf("topk: k must be >= 1, got %d", k))
	}
	k = min(k, len(xs))
	h := buf[:0]
	for _, x := range xs[:k] {
		h = append(h, sign*x)
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDownMin(h, i)
	}
	return h
}

// siftDownMin restores the min-heap property below index i.
func siftDownMin(h []float64, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if h[c] >= x {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// Merge combines several best-first result lists into the overall k best.
// If largest is true the highest scores win, otherwise the lowest. Ties are
// broken by ID. Duplicate IDs across lists are collapsed, keeping the best
// score for each ID.
func Merge(k int, largest bool, lists ...[]Result) []Result {
	best := make(map[int]float64)
	for _, list := range lists {
		for _, r := range list {
			cur, ok := best[r.ID]
			if !ok || (largest && r.Score > cur) || (!largest && r.Score < cur) {
				best[r.ID] = r.Score
			}
		}
	}
	var h *Heap
	if largest {
		h = NewLargest(k)
	} else {
		h = NewSmallest(k)
	}
	// Iterate in ID order for deterministic tie-breaks.
	ids := make([]int, 0, len(best))
	for id := range best {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		h.Push(id, best[id])
	}
	return h.Results()
}

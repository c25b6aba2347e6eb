// Package topk provides bounded-size heap utilities for k-best selection.
//
// Two kinds of heap live here. Heap retains the k best (id, score) results
// with a deterministic score-then-id order; it ranks answers and merges
// per-segment lists. KthLargest/KthSmallest are the paper's kfetch operator
// (Section 6.1), which only needs the k-th *value* of a score column: no
// ids and no tie-break, in O(k) space — two kernel passes over a segment's
// scores, or below a length threshold a value-only bounded heap.
package topk

import (
	"fmt"
	"math"
	"slices"

	"bond/internal/kernel"
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
// it, so unlike Heap this keeps no ids and breaks no ties, and buf (grown
// as needed and returned for reuse; nil allocates) holds bare float64s:
// O(k) of them, never O(len(xs)). If k exceeds len(xs) it returns the
// minimum of xs. It panics if xs is empty or k < 1.
//
// From selectMin elements on, with k ≤ kernel.SelectLanes, it runs two
// kernel passes in O(n) whatever the order of xs (see kthSelect); below
// that, a bounded min-heap, where an element no larger than the root costs
// one compare and the worst case (ascending input) is O(n log k). Both
// return the same value (a zero may differ in sign).
func KthLargest(xs []float64, k int, buf []float64) (float64, []float64) {
	if useSelect(len(xs), k) {
		return kthSelect(xs, k, buf, false)
	}
	return heapKthLargest(xs, k, buf)
}

// KthSmallest is KthLargest for the k-th smallest value (the maximum of xs
// if k exceeds len(xs)).
func KthSmallest(xs []float64, k int, buf []float64) (float64, []float64) {
	if useSelect(len(xs), k) {
		return kthSelect(xs, k, buf, true)
	}
	return heapKthSmallest(xs, k, buf)
}

// selectMin is the length from which the k-th value functions take the
// kernel path. BenchmarkKth at k = 10 (2-core Xeon sandbox, AVX2, best of
// 5): at n = 1 000 the kernel path takes 0.42–0.49 ns/element where the
// heap takes 0.94–1.50 (5.3 on sorted input); at n = 250, 224–270 ns
// against 260–1 450. They break even between 128 and 192 elements, below
// which the heap wins on scores that are mostly sentinels or ties.
const selectMin = 192

// selectCap is the kernel path's buffer: it holds the elements at or above
// the floor, and when it fills the k largest of them stay and the floor
// rises past the k-th. 128 slots stay at least 4k for every k the path
// takes, so each refill advances by at least 96 elements.
const selectCap = 128

// negInfLanes pads a short selection to the lanes kernel.SortLanes sorts.
var negInfLanes = func() (l [kernel.SelectLanes]float64) {
	for i := range l {
		l[i] = math.Inf(-1)
	}
	return l
}()

func useSelect(n, k int) bool {
	return n >= selectMin && k >= 1 && k <= kernel.SelectLanes
}

// kthSelect is the kernel path of KthLargest (KthSmallest with negate: it
// selects on −x, like the heap, and negates the answer back), for
// 1 ≤ k ≤ min(len(xs), kernel.SelectLanes).
//
// The floor: kernel.LaneMax partitions xs into SelectLanes disjoint groups
// and returns each group's maximum. The k-th largest of those maxima is
// never above the k-th largest of xs, since the k groups whose maximum
// reaches it each contribute a distinct element that does. So every
// element that can be among the k largest is at or above the floor, and
// kernel.SelectAtLeast copies just those into buf, typically one or two per
// cent of xs. When buf fills, its k largest stay and t, the k-th of them,
// is still no more than the k-th largest of xs; from then on only elements
// above t are selected (the floor rises to the next float64 after t), since
// buf already holds k at or above it. Ties — an early step's many equal
// partial scores — thus fill buf at most once.
//
// Both k-th values of the common case, the floor among the lanes and the
// answer among at most SelectLanes selected values, come from
// kernel.SortLanes: a sorting network, where a heap would mispredict a
// branch at every sift on fresh scores. The heap (kthInPlace) serves only
// when buf holds more.
func kthSelect(xs []float64, k int, buf []float64, negate bool) (float64, []float64) {
	var lanes [kernel.SelectLanes]float64
	kernel.LaneMax(&lanes, xs, negate)
	kernel.SortLanes(&lanes)
	floor := lanes[k-1]
	sel := buf[:0]
	if cap(sel) < selectCap {
		sel = make([]float64, 0, selectCap)
	}
	for rest := xs; ; {
		var used int
		sel, used = kernel.SelectAtLeast(sel, rest, floor, negate)
		if rest = rest[used:]; len(rest) == 0 {
			break
		}
		t := kthInPlace(sel, k)
		sel = sel[:k]
		if math.IsInf(t, 1) {
			break // k values at +Inf: nothing in rest can be above them
		}
		floor = math.Nextafter(t, math.Inf(1))
	}
	var kth float64
	if len(sel) <= kernel.SelectLanes {
		// Padded with −Inf, which sorts below or level with every selected
		// value: with k of them selected, the k-th lane is theirs. (Only a
		// NaN in xs can leave fewer than k selected; the answer is then a
		// pad, where the heap's is as arbitrary.)
		all := (*[kernel.SelectLanes]float64)(sel[:kernel.SelectLanes])
		copy(all[len(sel):], negInfLanes[:])
		kernel.SortLanes(all)
		kth = all[k-1]
	} else {
		kth = kthInPlace(sel, k)
	}
	if negate {
		kth = -kth
	}
	return kth, sel
}

// kthInPlace returns the k-th largest of h (1 ≤ k ≤ len(h)), leaving the k
// largest in h[:k] as a min-heap.
func kthInPlace(h []float64, k int) float64 {
	top := h[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDownMin(top, i)
	}
	for _, x := range h[k:] {
		if x > top[0] {
			top[0] = x
			siftDownMin(top, 0)
		}
	}
	return top[0]
}

// heapKthLargest is KthLargest by a bounded min-heap of k bare float64s in
// buf: the path below selectMin, and the reference the kernel path is
// tested against.
func heapKthLargest(xs []float64, k int, buf []float64) (float64, []float64) {
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

// heapKthSmallest is heapKthLargest for the k-th smallest value. The heap
// holds negated values, so both directions share one sift.
func heapKthSmallest(xs []float64, k int, buf []float64) (float64, []float64) {
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

// Merge exact-merges several best-first result lists over disjoint id
// spaces into the overall k best, with the Heap's score-then-id tie-break,
// so the answer is a unique function of the offered results whatever the
// list order. If largest is true the highest scores win (similarity,
// criteria Hq/Hh), otherwise the lowest (distance, Eq/Ev). It returns nil
// when k < 1.
//
// The lists are the exact local top-k of disjoint parts of a collection —
// segments, or shards behind a coordinator — so the global top k of their
// union is the top k of the concatenated lists. Each list must be sorted
// best-first; only its first k entries are consulted.
func Merge(k int, largest bool, lists ...[]Result) []Result {
	if k < 1 {
		return nil
	}
	var h *Heap
	if largest {
		h = NewLargest(k)
	} else {
		h = NewSmallest(k)
	}
	for _, list := range lists {
		if len(list) > k {
			list = list[:k] // entries past k can never make the global top k
		}
		for _, r := range list {
			h.Push(r.ID, r.Score)
		}
	}
	return h.Results()
}

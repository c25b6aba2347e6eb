package topk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bond/internal/kernel"
)

func TestHeapKeepsKLargest(t *testing.T) {
	h := NewLargest(3)
	scores := []float64{0.1, 0.9, 0.4, 0.7, 0.2, 0.8}
	for i, s := range scores {
		h.Push(i, s)
	}
	got := h.Results()
	want := []Result{{1, 0.9}, {5, 0.8}, {3, 0.7}}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHeapKeepsKSmallest(t *testing.T) {
	h := NewSmallest(2)
	scores := []float64{5, 1, 4, 2, 3}
	for i, s := range scores {
		h.Push(i, s)
	}
	got := h.Results()
	want := []Result{{1, 1}, {3, 2}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHeapThresholdUnavailableUntilFull(t *testing.T) {
	h := NewLargest(3)
	h.Push(0, 1.0)
	if _, ok := h.Threshold(); ok {
		t.Error("Threshold should be unavailable before heap is full")
	}
	h.Push(1, 2.0)
	h.Push(2, 3.0)
	v, ok := h.Threshold()
	if !ok || v != 1.0 {
		t.Errorf("Threshold = %v, %v; want 1.0, true", v, ok)
	}
}

func TestHeapWouldAccept(t *testing.T) {
	h := NewLargest(2)
	if !h.WouldAccept(0.0) {
		t.Error("non-full heap must accept anything")
	}
	h.Push(0, 0.5)
	h.Push(1, 0.7)
	if h.WouldAccept(0.4) {
		t.Error("0.4 must not displace threshold 0.5")
	}
	if !h.WouldAccept(0.5) {
		t.Error("equal score could displace via a smaller id, must answer true")
	}
	if !h.WouldAccept(0.6) {
		t.Error("0.6 must displace threshold 0.5")
	}
}

func TestHeapSmallestWouldAccept(t *testing.T) {
	h := NewSmallest(2)
	h.Push(0, 0.5)
	h.Push(1, 0.7)
	if h.WouldAccept(0.8) {
		t.Error("0.8 must not displace threshold 0.7 in smallest mode")
	}
	if !h.WouldAccept(0.6) {
		t.Error("0.6 must displace threshold 0.7 in smallest mode")
	}
}

func TestHeapFewerThanK(t *testing.T) {
	h := NewLargest(10)
	h.Push(3, 0.3)
	h.Push(1, 0.9)
	got := h.Results()
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	if got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("unexpected order: %+v", got)
	}
}

func TestKthLargestSmallCases(t *testing.T) {
	xs := []float64{0.3, 0.1, 0.5, 0.2, 0.4}
	cases := []struct {
		k    int
		want float64
	}{{1, 0.5}, {2, 0.4}, {3, 0.3}, {5, 0.1}, {10, 0.1}}
	for _, c := range cases {
		if got, _ := KthLargest(xs, c.k, nil); got != c.want {
			t.Errorf("KthLargest(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestKthSmallestSmallCases(t *testing.T) {
	xs := []float64{0.3, 0.1, 0.5, 0.2, 0.4}
	cases := []struct {
		k    int
		want float64
	}{{1, 0.1}, {2, 0.2}, {4, 0.4}, {5, 0.5}, {99, 0.5}}
	for _, c := range cases {
		if got, _ := KthSmallest(xs, c.k, nil); got != c.want {
			t.Errorf("KthSmallest(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestKthLargestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty slice")
		}
	}()
	KthLargest(nil, 1, nil)
}

func TestNewLargestPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on k=0")
		}
	}()
	NewLargest(0)
}

// Property: KthLargest matches sorting for random inputs.
func TestKthLargestMatchesSort(t *testing.T) {
	f := func(seed int64, n uint8, kraw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%50 + 1
		k := int(kraw)%size + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		got, _ := KthLargest(xs, k, nil)
		sorted := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		return got == sorted[k-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKthAgainstSort is the kfetch table: both directions against a full
// sort, on the inputs a value-only heap could get wrong — k at and past
// len, duplicates across the k boundary, signed zeros, and sorted input in
// both directions (every element, or none, replaces the root) — with the
// buffer reused between calls as the engine reuses it.
func TestKthAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 200)
	for i := range random {
		random[i] = float64(rng.Intn(40)) / 8 // many duplicates
	}
	asc := append([]float64(nil), random...)
	sort.Float64s(asc)
	desc := append([]float64(nil), asc...)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	negZero := math.Copysign(0, -1)
	inputs := map[string][]float64{
		"single":     {3},
		"random":     random,
		"ascending":  asc,
		"descending": desc,
		"constant":   {2, 2, 2, 2, 2},
		"zeros":      {0, negZero, 1, negZero, 0, -1},
		"negative":   {-3, -1, -2, -5, -4},
	}
	var buf []float64
	for name, xs := range inputs {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		n := len(xs)
		for _, k := range []int{1, 2, 3, n / 2, n - 1, n, n + 1, 3 * n} {
			if k < 1 {
				continue
			}
			kk := min(k, n)
			var small, large float64
			small, buf = KthSmallest(xs, k, buf)
			if want := sorted[kk-1]; small != want {
				t.Errorf("%s: KthSmallest(k=%d) = %v, want %v", name, k, small, want)
			}
			large, buf = KthLargest(xs, k, buf)
			if want := sorted[n-kk]; large != want {
				t.Errorf("%s: KthLargest(k=%d) = %v, want %v", name, k, large, want)
			}
		}
	}
}

// TestKthSelectMatchesSortAndHeap holds the kernel path of the k-th value
// functions (kthSelect, called directly at every length so that short
// inputs exercise it too) and the dispatching KthLargest/KthSmallest to a
// full sort and to the heap, in both directions: lengths 1–67, 250 and
// 1 000 at every offset 0–7 into a shared backing array, k from 1 to past
// the length, on random, ascending, descending and constant input, dense
// ties, ±Inf sentinels on 10, 50 and 90 % of the rows, and mixed ±0 —
// compared with ==, since the heap itself may return either zero.
func TestKthSelectMatchesSortAndHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var lengths []int
	for n := 1; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 250, 1000)
	backing := make([]float64, 1000+8)
	buf, sbuf := []float64(nil), make([]float64, 0, selectCap)
	for _, n := range lengths {
		for _, in := range kthTestInputs(rng, n) {
			base := rng.Intn(8)
			xs := backing[base : base+n]
			copy(xs, in.xs)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			ks := []int{n, n + 1}
			for k := 1; k <= min(n, kernel.SelectLanes)+1; k++ {
				ks = append(ks, k)
			}
			for _, k := range ks {
				kk := min(k, n)
				wantLarge, wantSmall := sorted[n-kk], sorted[kk-1]
				label := fmt.Sprintf("%s n=%d base=%d k=%d", in.name, n, base, k)
				check := func(what string, got, want float64) {
					t.Helper()
					if got != want {
						t.Fatalf("%s: %s = %v, want %v", label, what, got, want)
					}
				}
				var v float64
				v, buf = KthLargest(xs, k, buf)
				check("KthLargest", v, wantLarge)
				v, buf = KthSmallest(xs, k, buf)
				check("KthSmallest", v, wantSmall)
				v, buf = heapKthLargest(xs, k, buf)
				check("heapKthLargest", v, wantLarge)
				v, buf = heapKthSmallest(xs, k, buf)
				check("heapKthSmallest", v, wantSmall)
				if k <= min(n, kernel.SelectLanes) {
					// At selectCap slots, as the engine's buffer is: the
					// larger inputs fill it and raise the floor.
					v, sbuf = kthSelect(xs, k, sbuf, false)
					check("kthSelect", v, wantLarge)
					v, sbuf = kthSelect(xs, k, sbuf, true)
					check("kthSelect negated", v, wantSmall)
				}
			}
		}
	}
}

type kthTestInput struct {
	name string
	xs   []float64
}

func kthTestInputs(rng *rand.Rand, n int) []kthTestInput {
	fill := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	negZero := math.Copysign(0, -1)
	ins := []kthTestInput{
		{"random", fill(func(int) float64 { return rng.NormFloat64() })},
		{"ascending", fill(func(i int) float64 { return float64(i) })},
		{"descending", fill(func(i int) float64 { return float64(-i) })},
		{"constant", fill(func(int) float64 { return 0.5 })},
		{"ties", fill(func(int) float64 { return float64(rng.Intn(3)) })},
		{"zeros", fill(func(int) float64 { return []float64{0, negZero, 1, -1}[rng.Intn(4)] })},
	}
	for _, pct := range []int{10, 50, 90} {
		for _, dead := range []float64{math.Inf(-1), math.Inf(1)} {
			xs := fill(func(int) float64 { return rng.Float64() })
			for _, i := range rng.Perm(n)[:n*pct/100] {
				xs[i] = dead
			}
			ins = append(ins, kthTestInput{fmt.Sprintf("sentinel%v@%d%%", dead, pct), xs})
		}
	}
	return ins
}

// Property: heap of k largest equals the first k of the descending sort.
func TestHeapMatchesSort(t *testing.T) {
	f := func(seed int64, n uint8, kraw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%60 + 1
		k := int(kraw)%10 + 1
		h := NewLargest(k)
		all := make([]Result, size)
		for i := 0; i < size; i++ {
			// Use a discrete grid so ties occur with high probability.
			s := float64(rng.Intn(10)) / 10
			all[i] = Result{ID: i, Score: s}
			h.Push(i, s)
		}
		sort.Sort(ByScoreDesc(all))
		want := all
		if k < len(want) {
			want = want[:k]
		}
		got := h.Results()
		if len(got) != len(want) {
			return false
		}
		// Scores must match exactly; IDs may differ under ties.
		for i := range want {
			if got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeLargest(t *testing.T) {
	a := []Result{{1, 0.9}, {2, 0.5}}
	b := []Result{{3, 0.8}, {4, 0.5}} // ties id 2's score: the lower id wins
	got := Merge(3, true, a, b)
	want := []Result{{1, 0.9}, {3, 0.8}, {2, 0.5}}
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeSmallest(t *testing.T) {
	a := []Result{{2, 0.3}, {1, 0.9}}
	b := []Result{{4, 0.4}, {5, 0.5}}
	got := Merge(2, false, a, b)
	want := []Result{{2, 0.3}, {4, 0.4}}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func BenchmarkHeapPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 10000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewLargest(10)
		for id, s := range scores {
			h.Push(id, s)
		}
	}
}

// BenchmarkKth times kfetch at the shapes the engine calls it with — one
// segment's worth of scores (n = 1 000, and the 250 of a small segment),
// k = 10 — and reports ns per element, for KthLargest as dispatched
// ("kfetch") beside the bounded heap alone ("heap"). random is the common
// case; sorted is the heap's worst (every element beats its root: a sift
// of depth log k) and no worse than random for the kernel path; dead10/50/90
// are the dense phase's scores, where that share of the rows holds the
// sentinel −Inf; ties is an early step's, most live scores still exactly 0.
// Each call gets the next of kthBenchSets inputs of the kind: the same
// input every time would let the branch predictor learn the heap's sifts,
// which fresh scores never allow.
func BenchmarkKth(b *testing.B) {
	const k = 10
	for _, n := range []int{250, 1000} {
		for _, in := range kthBenchInputs(n) {
			for _, impl := range []struct {
				name string
				kth  func([]float64, int, []float64) (float64, []float64)
			}{{"kfetch", KthLargest}, {"heap", heapKthLargest}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", in.name, n, impl.name), func(b *testing.B) {
					var buf []float64
					for i := 0; i < b.N; i++ {
						kthSink, buf = impl.kth(in.sets[i%len(in.sets)], k, buf)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
				})
			}
		}
	}
}

const kthBenchSets = 64

type kthBenchInput struct {
	name string
	sets [][]float64
}

func kthBenchInputs(n int) []kthBenchInput {
	rng := rand.New(rand.NewSource(1))
	// overwrite sets pct per cent of the rows, at random, to v.
	overwrite := func(pct int, v float64) func([]float64) {
		return func(xs []float64) {
			for _, j := range rng.Perm(n)[:n*pct/100] {
				xs[j] = v
			}
		}
	}
	kinds := []struct {
		name  string
		shape func([]float64)
	}{
		{"random", func([]float64) {}},
		{"sorted", sort.Float64s},
		{"dead10", overwrite(10, math.Inf(-1))},
		{"dead50", overwrite(50, math.Inf(-1))},
		{"dead90", overwrite(90, math.Inf(-1))},
		{"ties", overwrite(90, 0)},
	}
	ins := make([]kthBenchInput, len(kinds))
	for i, kind := range kinds {
		ins[i].name = kind.name
		for s := 0; s < kthBenchSets; s++ {
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = rng.Float64()
			}
			kind.shape(xs)
			ins[i].sets = append(ins[i].sets, xs)
		}
	}
	return ins
}

var kthSink float64

// TestHeapDeterministicTieBreak pins the order-independence property the
// segmented merge relies on: among equal scores at the k-boundary the
// smaller ids win, no matter in which order results are offered.
func TestHeapDeterministicTieBreak(t *testing.T) {
	offers := []Result{{ID: 9, Score: 0.5}, {ID: 2, Score: 0.5}, {ID: 7, Score: 0.9},
		{ID: 4, Score: 0.5}, {ID: 1, Score: 0.2}}
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {3, 4, 0, 2, 1}}
	for _, p := range perms {
		h := NewLargest(3)
		for _, i := range p {
			h.Push(offers[i].ID, offers[i].Score)
		}
		got := h.Results()
		want := []Result{{ID: 7, Score: 0.9}, {ID: 2, Score: 0.5}, {ID: 4, Score: 0.5}}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("perm %v: rank %d = %+v, want %+v", p, i, got[i], want[i])
			}
		}
	}
	for _, p := range perms {
		h := NewSmallest(2)
		for _, i := range p {
			h.Push(offers[i].ID, offers[i].Score)
		}
		got := h.Results()
		want := []Result{{ID: 1, Score: 0.2}, {ID: 2, Score: 0.5}}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("smallest perm %v: rank %d = %+v, want %+v", p, i, got[i], want[i])
			}
		}
	}
}

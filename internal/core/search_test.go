package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"bond/internal/bitmap"
	"bond/internal/dataset"
	"bond/internal/seqscan"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// corelFixture caches a Corel-like collection shared across tests.
var corelFixture = struct {
	vectors [][]float64
	store   *vstore.Store
}{}

func corel(t *testing.T) ([][]float64, *vstore.Store) {
	t.Helper()
	if corelFixture.store == nil {
		corelFixture.vectors = dataset.CorelLike(2000, 64, 1234)
		corelFixture.store = vstore.FromVectors(corelFixture.vectors)
	}
	return corelFixture.vectors, corelFixture.store
}

// sameResults checks rank-by-rank equality of two result lists. Scores must
// agree within tolerance at every rank. IDs must agree except at ranks whose
// score is tied with another rank in the reference: BOND accumulates in a
// different dimension order than the scan, so last-ulp rounding may break
// exact ties differently — any tie-equivalent id is acceptable there.
func sameResults(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	const eps = 1e-9
	tied := func(i int) bool {
		return (i > 0 && math.Abs(want[i].Score-want[i-1].Score) <= eps) ||
			(i+1 < len(want) && math.Abs(want[i].Score-want[i+1].Score) <= eps)
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > eps {
			t.Errorf("%s: rank %d score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
		if got[i].ID != want[i].ID && !tied(i) {
			t.Errorf("%s: rank %d = id %d, want id %d (scores %v vs %v)",
				label, i, got[i].ID, want[i].ID, got[i].Score, want[i].Score)
		}
	}
}

// TestSearchMatchesSequentialScan is the central correctness property:
// every criterion must return exactly the sequential scan's answer.
func TestSearchMatchesSequentialScan(t *testing.T) {
	vs, store := corel(t)
	queries, _ := dataset.SampleQueries(vs, 8, 99)
	for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
		for _, q := range queries {
			res, err := Search(store, q, Options{K: 10, Criterion: crit, NormalizedData: true})
			if err != nil {
				t.Fatalf("%v: %v", crit, err)
			}
			var want []topk.Result
			if crit.Distance() {
				want, _ = seqscan.SearchEuclidean(vs, q, 10)
			} else {
				want, _ = seqscan.SearchHistogram(vs, q, 10)
			}
			sameResults(t, crit.String(), res.Results, want)
		}
	}
}

// TestSearchAllOrderings: correctness must hold for any processing order
// (the aggregates are commutative — Section 5.1).
func TestSearchAllOrderings(t *testing.T) {
	vs, store := corel(t)
	q := vs[7]
	want, _ := seqscan.SearchHistogram(vs, q, 5)
	for _, ord := range []Order{OrderQueryDesc, OrderQueryAsc, OrderRandom, OrderNatural} {
		res, err := Search(store, q, Options{K: 5, Criterion: Hq, Order: ord, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		sameResults(t, ord.String(), res.Results, want)
	}
}

// TestSearchVariousStepSizes: the pruning granularity m must not change
// the answer (Section 5.2 tunes only speed).
func TestSearchVariousStepSizes(t *testing.T) {
	vs, store := corel(t)
	q := vs[42]
	want, _ := seqscan.SearchEuclidean(vs, q, 10)
	for _, step := range []int{1, 3, 8, 16, 64, 1000} {
		res, err := Search(store, q, Options{K: 10, Criterion: Ev, Step: step})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sameResults(t, "step", res.Results, want)
	}
}

func TestSearchVariousK(t *testing.T) {
	vs, store := corel(t)
	q := vs[11]
	for _, k := range []int{1, 2, 10, 100, 1999, 2000, 5000} {
		res, err := Search(store, q, Options{K: k, Criterion: Hq})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantK := k
		if wantK > len(vs) {
			wantK = len(vs)
		}
		want, _ := seqscan.SearchHistogram(vs, q, wantK)
		sameResults(t, "k", res.Results, want)
	}
}

func TestSearchPrunesAggressivelyOnSkewedData(t *testing.T) {
	vs, store := corel(t)
	q := vs[5]
	res, err := Search(store, q, Options{K: 10, Criterion: Hq})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports > 98 % of vectors discarded after ~1/5 of the
	// dimensions on Corel-like data. Check a conservative version: by half
	// the dimensions, at least 90 % must be gone.
	half := store.Dims() / 2
	for _, st := range res.Stats.Steps {
		if st.DimsProcessed >= half {
			frac := float64(st.Candidates) / float64(len(vs))
			if frac > 0.10 {
				t.Errorf("after %d dims still %d candidates (%.1f%%)",
					st.DimsProcessed, st.Candidates, frac*100)
			}
			break
		}
	}
	if res.Stats.ValuesScanned >= int64(len(vs)*store.Dims()) {
		t.Error("BOND scanned at least as much as a full scan on skewed data")
	}
}

func TestSearchStatsShape(t *testing.T) {
	vs, store := corel(t)
	res, err := Search(store, vs[0], Options{K: 10, Criterion: Hh, Step: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Steps) == 0 {
		t.Fatal("no step statistics recorded")
	}
	prev := len(vs)
	for i, st := range res.Stats.Steps {
		if st.DimsProcessed%8 != 0 {
			t.Errorf("step %d at dims %d, want multiple of 8", i, st.DimsProcessed)
		}
		if st.Candidates > prev {
			t.Errorf("candidate count grew at step %d: %d > %d", i, st.Candidates, prev)
		}
		if !st.Skipped && st.Pruned != prev-st.Candidates {
			t.Errorf("step %d pruned %d, want %d", i, st.Pruned, prev-st.Candidates)
		}
		prev = st.Candidates
	}
	if res.Stats.FinalCandidates < 10 {
		t.Errorf("final candidates %d < k", res.Stats.FinalCandidates)
	}
}

func TestHqFutileSkipBeforeHalfMass(t *testing.T) {
	_, store := corel(t)
	// A query with its mass spread over four dimensions: T(q⁻) exceeds 0.5
	// only from the third processed dimension on, so the first two step-1
	// pruning attempts are provably futile (Section 5.2).
	q := make([]float64, store.Dims())
	q[0], q[1], q[2], q[3] = 0.25, 0.25, 0.25, 0.25
	res, err := Search(store, q, Options{K: 10, Criterion: Hq, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Steps) < 2 || !res.Stats.Steps[0].Skipped || !res.Stats.Steps[1].Skipped {
		t.Error("pruning attempts with T(q⁻) ≤ 0.5 should be futile-skipped")
	}
	// Once pruning starts, skips should stop occurring on this data.
	started := false
	for _, st := range res.Stats.Steps {
		if !st.Skipped {
			started = true
		} else if started && st.Skipped {
			t.Error("futile skip after pruning already started")
			break
		}
	}
}

func TestSearchWeighted(t *testing.T) {
	vs, store := corel(t)
	q := vs[21]
	w := dataset.WeightsZipf(store.Dims(), 2.0, 5)
	want, _ := seqscan.SearchWeightedEuclidean(vs, q, w, 10)
	for _, crit := range []Criterion{Eq, Ev} {
		res, err := Search(store, q, Options{K: 10, Criterion: crit, Weights: w})
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		sameResults(t, "weighted "+crit.String(), res.Results, want)
	}
}

func TestSearchSubspaceEuclidean(t *testing.T) {
	vs, store := corel(t)
	q := vs[33]
	dims := []int{0, 3, 5, 17, 40, 63}
	w := make([]float64, store.Dims())
	for _, d := range dims {
		w[d] = 1
	}
	want, _ := seqscan.SearchWeightedEuclidean(vs, q, w, 5)
	res, err := Search(store, q, Options{K: 5, Criterion: Ev, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "subspace", res.Results, want)
	// Only subspace columns may be read: at most |dims| × n values.
	if res.Stats.ValuesScanned > int64(len(dims)*len(vs)) {
		t.Errorf("scanned %d values, max %d for the subspace", res.Stats.ValuesScanned, len(dims)*len(vs))
	}
}

func TestSearchSubspaceHistogram(t *testing.T) {
	vs, store := corel(t)
	q := vs[8]
	dims := []int{1, 2, 10, 30, 50}
	// Reference: intersection over the subspace only.
	h := topk.NewLargest(5)
	for id, v := range vs {
		s := 0.0
		for _, d := range dims {
			s += math.Min(v[d], q[d])
		}
		h.Push(id, s)
	}
	want := h.Results()
	for _, crit := range []Criterion{Hq, Hh} {
		res, err := Search(store, q, Options{K: 5, Criterion: crit, Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "subspace "+crit.String(), res.Results, want)
	}
}

func TestSearchRespectsDeletes(t *testing.T) {
	vs := dataset.CorelLike(200, 32, 8)
	store := vstore.FromVectors(vs)
	q := vs[0]
	// Vector 0 is the query itself: it must win, then vanish when deleted.
	res, _ := Search(store, q, Options{K: 1, Criterion: Hq})
	if res.Results[0].ID != 0 {
		t.Fatalf("self not found: got %d", res.Results[0].ID)
	}
	store.Delete(0)
	res, _ = Search(store, q, Options{K: 1, Criterion: Hq})
	if res.Results[0].ID == 0 {
		t.Error("deleted vector returned")
	}
}

func TestSearchExcludeBitmapAsPredicate(t *testing.T) {
	vs := dataset.CorelLike(100, 16, 3)
	store := vstore.FromVectors(vs)
	q := vs[4]
	// Exclude the even ids ("photographs not taken in 1992").
	excl := bitmap.New(100)
	for i := 0; i < 100; i += 2 {
		excl.Set(i)
	}
	res, err := Search(store, q, Options{K: 5, Criterion: Hq, Exclude: excl})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.ID%2 == 0 {
			t.Errorf("excluded id %d returned", r.ID)
		}
	}
}

func TestSearchErrorCases(t *testing.T) {
	vs := dataset.CorelLike(10, 8, 1)
	store := vstore.FromVectors(vs)
	q := vs[0]

	if _, err := Search(store, q, Options{K: 0, Criterion: Hq}); !errors.Is(err, ErrBadK) {
		t.Errorf("K=0: err = %v", err)
	}
	if _, err := Search(store, q[:4], Options{K: 1, Criterion: Hq}); !errors.Is(err, ErrQueryMismatch) {
		t.Errorf("short query: err = %v", err)
	}
	if _, err := Search(store, q, Options{K: 1, Criterion: Hh, Weights: make([]float64, 8)}); !errors.Is(err, ErrWeightMetric) {
		t.Errorf("weights+Hh: err = %v", err)
	}
	if _, err := Search(store, q, Options{K: 1, Criterion: Ev, Weights: make([]float64, 3)}); !errors.Is(err, ErrWeightMismatch) {
		t.Errorf("short weights: err = %v", err)
	}
	w := make([]float64, 8)
	w[0] = -1
	if _, err := Search(store, q, Options{K: 1, Criterion: Ev, Weights: w}); !errors.Is(err, ErrWeightMismatch) {
		t.Errorf("negative weight: err = %v", err)
	}
	if _, err := Search(store, q, Options{K: 1, Criterion: Hq, Dims: []int{0, 0}}); !errors.Is(err, ErrBadDims) {
		t.Errorf("dup dims: err = %v", err)
	}
	if _, err := Search(store, q, Options{K: 1, Criterion: Hq, Dims: []int{99}}); !errors.Is(err, ErrBadDims) {
		t.Errorf("oob dims: err = %v", err)
	}
	excl := bitmap.NewFull(10)
	if _, err := Search(store, q, Options{K: 1, Criterion: Hq, Exclude: excl}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("all excluded: err = %v", err)
	}
}

// Property: on random clustered data, BOND with Ev matches the scan for
// random k and seeds.
func TestSearchMatchesScanProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		cfg := dataset.DefaultClustered(150, 12, 1.0, seed)
		cfg.Clusters = 10
		vs := dataset.Clustered(cfg)
		store := vstore.FromVectors(vs)
		k := int(kRaw)%8 + 1
		q := vs[int(uint64(seed)%uint64(len(vs)))]
		res, err := Search(store, q, Options{K: k, Criterion: Ev, Step: 4})
		if err != nil {
			return false
		}
		want, _ := seqscan.SearchEuclidean(vs, q, k)
		if len(res.Results) != len(want) {
			return false
		}
		for i := range want {
			if res.Results[i].ID != want[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Hh never retains more candidates than Hq at the same step
// (its bounds are strictly tighter — Section 4.1).
func TestHhDominatesHq(t *testing.T) {
	futileSkipDisabled = true
	defer func() { futileSkipDisabled = false }()
	vs, store := corel(t)
	for _, qi := range []int{2, 9, 77, 500} {
		q := vs[qi]
		rq, _ := Search(store, q, Options{K: 10, Criterion: Hq})
		rh, _ := Search(store, q, Options{K: 10, Criterion: Hh})
		n := len(rq.Stats.Steps)
		if len(rh.Stats.Steps) < n {
			n = len(rh.Stats.Steps)
		}
		for i := 0; i < n; i++ {
			if rh.Stats.Steps[i].Candidates > rq.Stats.Steps[i].Candidates {
				t.Errorf("q%d step %d: Hh kept %d > Hq %d", qi, i,
					rh.Stats.Steps[i].Candidates, rq.Stats.Steps[i].Candidates)
			}
		}
	}
}

// TestSearchWeightedHistogram covers the Section 8.2 weighted histogram
// intersection: Σ w_i·min(h_i, q_i), with zero weights excluding dims.
func TestSearchWeightedHistogram(t *testing.T) {
	vs, store := corel(t)
	q := vs[14]
	w := dataset.WeightsZipf(store.Dims(), 1.5, 9)
	w[3] = 0 // exclude one dimension entirely

	// Reference: brute force.
	h := topk.NewLargest(5)
	for id, v := range vs {
		s := 0.0
		for d := range v {
			s += w[d] * math.Min(v[d], q[d])
		}
		h.Push(id, s)
	}
	want := h.Results()

	res, err := Search(store, q, Options{K: 5, Criterion: Hq, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "weighted Hq", res.Results, want)
	// The zero-weight column must never be read.
	if res.Stats.ValuesScanned > int64((store.Dims()-1)*len(vs)) {
		t.Errorf("scanned %d values; zero-weight column should be skipped", res.Stats.ValuesScanned)
	}
}

// TestSearchAdaptiveStep verifies the Section 5.2 dynamic-m variant: the
// answer is unchanged and unproductive steps get coarser.
func TestSearchAdaptiveStep(t *testing.T) {
	vs, store := corel(t)
	q := vs[25]
	want, _ := seqscan.SearchEuclidean(vs, q, 10)
	res, err := Search(store, q, Options{K: 10, Criterion: Ev, AdaptiveStep: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "adaptive", res.Results, want)

	fixed, err := Search(store, q, Options{K: 10, Criterion: Ev})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Steps) > len(fixed.Stats.Steps) {
		t.Errorf("adaptive made %d pruning attempts, fixed made %d",
			len(res.Stats.Steps), len(fixed.Stats.Steps))
	}
	// Adaptive steps must be non-uniform once pruning dries up: the gaps
	// between consecutive recorded steps should grow somewhere.
	grew := false
	for i := 2; i < len(res.Stats.Steps); i++ {
		a := res.Stats.Steps[i].DimsProcessed - res.Stats.Steps[i-1].DimsProcessed
		b := res.Stats.Steps[i-1].DimsProcessed - res.Stats.Steps[i-2].DimsProcessed
		if a > b {
			grew = true
		}
	}
	if len(res.Stats.Steps) >= 3 && !grew {
		t.Log("note: adaptive step never widened (pruning stayed productive); acceptable")
	}
}

// TestSearchRejectsOutOfRangeData guards the bound preconditions: Lemma 1
// and Eq. 10 assume the unit hyper-box, histogram bounds assume h ≥ 0.
func TestSearchRejectsOutOfRangeData(t *testing.T) {
	wide := vstore.FromVectors([][]float64{{2.5, 0.1}, {0.3, 0.4}})
	q := []float64{0.5, 0.5}
	if _, err := Search(wide, q, Options{K: 1, Criterion: Ev}); !errors.Is(err, ErrDataRange) {
		t.Errorf("Ev on >1 data: err = %v, want ErrDataRange", err)
	}
	// Histogram intersection tolerates values above 1 but not below 0.
	if _, err := Search(wide, q, Options{K: 1, Criterion: Hq}); err != nil {
		t.Errorf("Hq on >1 data: err = %v, want nil", err)
	}
	neg := vstore.FromVectors([][]float64{{-0.5, 0.1}, {0.3, 0.4}})
	if _, err := Search(neg, q, Options{K: 1, Criterion: Hq}); !errors.Is(err, ErrDataRange) {
		t.Errorf("Hq on negative data: err = %v, want ErrDataRange", err)
	}
}

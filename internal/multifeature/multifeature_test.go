package multifeature

import (
	"errors"
	"math"
	"testing"

	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// twoFeatures builds a pair of normalized clustered feature collections
// over the same objects (Section 8.2's experimental setup, scaled down).
func twoFeatures(n int, seed int64) []Feature {
	c1 := dataset.DefaultClustered(n, 24, 1.0, seed)
	c1.Clusters = 30
	v1 := dataset.Clustered(c1)
	dataset.NormalizeAll(v1)
	c2 := dataset.DefaultClustered(n, 48, 1.0, seed+1)
	c2.Clusters = 30
	v2 := dataset.Clustered(c2)
	dataset.NormalizeAll(v2)
	return []Feature{
		{Store: vstore.FromVectors(v1), Query: append([]float64(nil), v1[0]...), Weight: 0.6},
		{Store: vstore.FromVectors(v2), Query: append([]float64(nil), v2[0]...), Weight: 0.4},
	}
}

// bruteGlobal ranks all objects by exact aggregate score.
func bruteGlobal(features []Feature, agg Aggregate, k int) []topk.Result {
	h := topk.NewLargest(k)
	for id := 0; id < features[0].Store.Len(); id++ {
		h.Push(id, ExactGlobal(features, agg, id))
	}
	return h.Results()
}

func TestAggregateCombine(t *testing.T) {
	scores := []float64{0.2, 0.8}
	weights := []float64{1, 3}
	if got := WeightedAvg.Combine(scores, weights); math.Abs(got-0.65) > 1e-12 {
		t.Errorf("avg = %v, want 0.65", got)
	}
	if got := MinAgg.Combine(scores, weights); got != 0.2 {
		t.Errorf("min = %v", got)
	}
	if got := MaxAgg.Combine(scores, weights); got != 0.8 {
		t.Errorf("max = %v", got)
	}
	if got := WeightedAvg.Combine(scores, []float64{0, 0}); got != 0 {
		t.Errorf("avg with zero weights = %v, want 0", got)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	features := twoFeatures(400, 3)
	for _, agg := range []Aggregate{WeightedAvg, MinAgg, MaxAgg} {
		res, err := Search(features, Options{K: 10, Agg: agg})
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		want := bruteGlobal(features, agg, 10)
		if len(res.Results) != len(want) {
			t.Fatalf("%v: %d results", agg, len(res.Results))
		}
		for i := range want {
			gotR, wantR := res.Results[i], want[i]
			if gotR.ID != wantR.ID && math.Abs(gotR.Score-wantR.Score) > 1e-9 {
				t.Errorf("%v rank %d: id %d (%.6f), want %d (%.6f)",
					agg, i, gotR.ID, gotR.Score, wantR.ID, wantR.Score)
			}
		}
	}
}

func TestSearchSelfQueryWins(t *testing.T) {
	features := twoFeatures(300, 9)
	// Queries are object 0's own vectors: it must rank first for any
	// monotone aggregate.
	for _, agg := range []Aggregate{WeightedAvg, MinAgg} {
		res, err := Search(features, Options{K: 1, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Results[0].ID != 0 {
			t.Errorf("%v: best = %d, want 0", agg, res.Results[0].ID)
		}
	}
}

func TestSearchPrunes(t *testing.T) {
	features := twoFeatures(600, 4)
	res, err := Search(features, Options{K: 10, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	full := int64(600 * (24 + 48))
	if res.Stats.ValuesScanned >= full {
		t.Errorf("synchronized search scanned %d ≥ full %d", res.Stats.ValuesScanned, full)
	}
	if len(res.Stats.Steps) == 0 {
		t.Error("no pruning steps recorded")
	}
}

func TestSearchRespectsDeletes(t *testing.T) {
	features := twoFeatures(100, 7)
	features[0].Store.(*vstore.Store).Delete(0)
	res, err := Search(features, Options{K: 3, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.ID == 0 {
			t.Error("deleted object returned")
		}
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(nil, Options{K: 1}); !errors.Is(err, ErrNoFeatures) {
		t.Errorf("no features: %v", err)
	}
	f := twoFeatures(50, 1)
	if _, err := Search(f, Options{K: 0}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("K=0: %v", err)
	}
	short := twoFeatures(30, 2)
	mixed := []Feature{f[0], short[1]}
	if _, err := Search(mixed, Options{K: 1}); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch: %v", err)
	}
	bad := []Feature{{Store: f[0].Store, Query: []float64{1}, Weight: 1}}
	if _, err := Search(bad, Options{K: 1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("query dims: %v", err)
	}
}

func TestExactGlobalMatchesManual(t *testing.T) {
	v1 := [][]float64{{0.5, 0.5}, {1, 0}}
	v2 := [][]float64{{0.25, 0.75}, {0, 1}}
	features := []Feature{
		{Store: vstore.FromVectors(v1), Query: []float64{0.5, 0.5}, Weight: 1},
		{Store: vstore.FromVectors(v2), Query: []float64{0.5, 0.5}, Weight: 1},
	}
	// Object 0: feature sims = 1.0 and (0.25+0.5)=0.75; avg = 0.875.
	if got := ExactGlobal(features, WeightedAvg, 0); math.Abs(got-0.875) > 1e-12 {
		t.Errorf("ExactGlobal = %v, want 0.875", got)
	}
	if got := ExactGlobal(features, MinAgg, 0); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ExactGlobal min = %v, want 0.75", got)
	}
}

func TestThreeFeatures(t *testing.T) {
	f2 := twoFeatures(200, 5)
	c3 := dataset.DefaultClustered(200, 12, 0.5, 77)
	c3.Clusters = 10
	v3 := dataset.Clustered(c3)
	dataset.NormalizeAll(v3)
	features := append(f2, Feature{Store: vstore.FromVectors(v3), Query: v3[0], Weight: 1})
	res, err := Search(features, Options{K: 5, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteGlobal(features, WeightedAvg, 5)
	for i := range want {
		if res.Results[i].ID != want[i].ID && math.Abs(res.Results[i].Score-want[i].Score) > 1e-9 {
			t.Errorf("rank %d: id %d, want %d", i, res.Results[i].ID, want[i].ID)
		}
	}
}

func TestExactGlobalBatchMatchesSingle(t *testing.T) {
	features := twoFeatures(80, 21)
	ids := []int{0, 3, 17, 42, 79}
	for _, agg := range []Aggregate{WeightedAvg, MinAgg, MaxAgg} {
		batch := ExactGlobalBatch(features, agg, ids)
		for i, id := range ids {
			single := ExactGlobal(features, agg, id)
			if math.Abs(batch[i]-single) > 1e-12 {
				t.Errorf("%v id %d: batch %v != single %v", agg, id, batch[i], single)
			}
		}
	}
}

// mixedFeatures pairs a histogram component with a Euclidean component
// over the same objects.
func mixedFeatures(n int, seed int64) []Feature {
	c1 := dataset.DefaultClustered(n, 24, 1.0, seed)
	c1.Clusters = 20
	v1 := dataset.Clustered(c1)
	dataset.NormalizeAll(v1) // histogram component must be normalized
	c2 := dataset.DefaultClustered(n, 32, 1.0, seed+1)
	c2.Clusters = 20
	v2 := dataset.Clustered(c2) // Euclidean component stays in the unit box
	return []Feature{
		{Store: vstore.FromVectors(v1), Query: append([]float64(nil), v1[0]...), Weight: 0.5, Metric: MetricHistogram},
		{Store: vstore.FromVectors(v2), Query: append([]float64(nil), v2[0]...), Weight: 0.5, Metric: MetricEuclidean},
	}
}

// TestMixedMetricsMatchBruteForce covers Section 8.2's claim that
// components may use different similarity metrics.
func TestMixedMetricsMatchBruteForce(t *testing.T) {
	features := mixedFeatures(350, 41)
	for _, agg := range []Aggregate{WeightedAvg, MinAgg} {
		res, err := Search(features, Options{K: 8, Agg: agg})
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		want := bruteGlobal(features, agg, 8)
		for i := range want {
			if res.Results[i].ID != want[i].ID && math.Abs(res.Results[i].Score-want[i].Score) > 1e-9 {
				t.Errorf("%v rank %d: id %d (%.6f), want %d (%.6f)",
					agg, i, res.Results[i].ID, res.Results[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

func TestMixedMetricsSelfQueryWins(t *testing.T) {
	features := mixedFeatures(200, 43)
	res, err := Search(features, Options{K: 1, Agg: MinAgg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID != 0 {
		t.Errorf("best = %d, want 0 (exact match on both components)", res.Results[0].ID)
	}
	if math.Abs(res.Results[0].Score-1) > 1e-9 {
		t.Errorf("self score = %v, want 1 on both metrics", res.Results[0].Score)
	}
}

func TestEuclideanOnlyFeaturesMatchBruteForce(t *testing.T) {
	features := mixedFeatures(300, 47)
	features[0].Metric = MetricEuclidean // both components Euclidean now
	res, err := Search(features, Options{K: 5, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteGlobal(features, WeightedAvg, 5)
	for i := range want {
		if res.Results[i].ID != want[i].ID && math.Abs(res.Results[i].Score-want[i].Score) > 1e-9 {
			t.Errorf("rank %d: id %d, want %d", i, res.Results[i].ID, want[i].ID)
		}
	}
}

func TestMixedMetricsBatchMatchesSingle(t *testing.T) {
	features := mixedFeatures(60, 51)
	ids := []int{0, 5, 30, 59}
	batch := ExactGlobalBatch(features, WeightedAvg, ids)
	for i, id := range ids {
		if s := ExactGlobal(features, WeightedAvg, id); math.Abs(batch[i]-s) > 1e-12 {
			t.Errorf("id %d: batch %v != single %v", id, batch[i], s)
		}
	}
}

// TestSegmentedFeaturesMatchFlat is the segmented-storage oracle: the same
// objects served from segment views must produce the identical result set
// as flat stores, for synchronized search and both random-access primitives.
func TestSegmentedFeaturesMatchFlat(t *testing.T) {
	flat := twoFeatures(400, 13)
	seg := twoFeatures(400, 13)
	for f := range seg {
		st := seg[f].Store.(*vstore.Store)
		ss := vstore.NewSegmented(st.Dims(), 90)
		for id := 0; id < st.Len(); id++ {
			ss.Append(st.Row(id))
		}
		segs, bases := ss.Segments(), ss.Bases()
		views := make([]core.SegmentView, len(segs))
		for i := range segs {
			lo, hi := segs[i].DimRanges()
			views[i] = core.SegmentView{Src: segs[i], Base: bases[i], Lo: lo, Hi: hi}
		}
		seg[f].Store = nil
		seg[f].Segments = views
	}
	seg[1].Metric = MetricEuclidean
	flat[1].Metric = MetricEuclidean
	// Deletes must be honored per segment.
	flat[0].Store.(*vstore.Store).Delete(33)
	seg[0].Segments[0].Src.(*vstore.Segment).Delete(33)

	for _, agg := range []Aggregate{WeightedAvg, MinAgg, MaxAgg} {
		want, err := Search(flat, Options{K: 8, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Search(seg, Options{K: 8, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%v: %d results, want %d", agg, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("%v rank %d: {%d %v}, want {%d %v}", agg, i,
					got.Results[i].ID, got.Results[i].Score,
					want.Results[i].ID, want.Results[i].Score)
			}
		}
	}
	ids := []int{5, 399, 90, 89, 180}
	wantB := ExactGlobalBatch(flat, WeightedAvg, ids)
	gotB := ExactGlobalBatch(seg, WeightedAvg, ids)
	for i := range ids {
		if gotB[i] != wantB[i] {
			t.Fatalf("batch id %d: %v, want %v", ids[i], gotB[i], wantB[i])
		}
		if g := ExactGlobal(seg, WeightedAvg, ids[i]); g != wantB[i] {
			t.Fatalf("single id %d: %v, want %v", ids[i], g, wantB[i])
		}
	}
}

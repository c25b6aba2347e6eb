package seqscan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bond/internal/dataset"
	"bond/internal/topk"
)

// bruteHistogram scores every vector by Definition 1, summed in storage
// order, and keeps the k best.
func bruteHistogram(vectors [][]float64, q []float64, k int) []topk.Result {
	h := topk.NewLargest(k)
	for id, v := range vectors {
		s := 0.0
		for d, x := range v {
			s += min(x, q[d])
		}
		h.Push(id, s)
	}
	return h.Results()
}

func TestSearchHistogramSmall(t *testing.T) {
	vs := [][]float64{
		{0.9, 0.1},
		{0.5, 0.5},
		{0.1, 0.9},
	}
	q := []float64{0.8, 0.2}
	got, st := SearchHistogram(vs, q, 2)
	if got[0].ID != 0 {
		t.Errorf("best = %d, want 0", got[0].ID)
	}
	if got[1].ID != 1 {
		t.Errorf("second = %d, want 1", got[1].ID)
	}
	if st.ValuesScanned != 6 {
		t.Errorf("ValuesScanned = %d, want 6", st.ValuesScanned)
	}
}

func TestSearchEuclideanSmall(t *testing.T) {
	vs := [][]float64{
		{0.0, 0.0},
		{0.5, 0.5},
		{1.0, 1.0},
	}
	q := []float64{0.45, 0.45}
	got, _ := SearchEuclidean(vs, q, 1)
	if got[0].ID != 1 {
		t.Errorf("nearest = %d, want 1", got[0].ID)
	}
}

func TestSearchWeightedEuclidean(t *testing.T) {
	vs := [][]float64{
		{0.0, 0.5}, // far in dim 0, exact in dim 1
		{0.5, 0.0}, // exact in dim 0, far in dim 1
	}
	q := []float64{0.5, 0.5}
	// Heavy weight on dim 0 makes vector 1 the better match.
	got, _ := SearchWeightedEuclidean(vs, q, []float64{10, 0.1}, 1)
	if got[0].ID != 1 {
		t.Errorf("weighted nearest = %d, want 1", got[0].ID)
	}
	// Flip the weights.
	got, _ = SearchWeightedEuclidean(vs, q, []float64{0.1, 10}, 1)
	if got[0].ID != 0 {
		t.Errorf("weighted nearest = %d, want 0", got[0].ID)
	}
}

func TestKLargerThanCollection(t *testing.T) {
	vs := [][]float64{{0.5}, {0.2}}
	got, _ := SearchHistogram(vs, []float64{1}, 10)
	if len(got) != 2 {
		t.Errorf("got %d results, want all 2", len(got))
	}
}

func TestAbandonVariantsMatchExact(t *testing.T) {
	vs := dataset.CorelLike(300, 32, 5)
	qs, _ := dataset.SampleQueries(vs, 5, 6)
	for _, q := range qs {
		exact, _ := SearchHistogram(vs, q, 10)
		ab, st := SearchHistogramAbandon(vs, q, 10, 8)
		if len(exact) != len(ab) {
			t.Fatalf("length mismatch %d vs %d", len(exact), len(ab))
		}
		for i := range exact {
			if exact[i].ID != ab[i].ID {
				t.Errorf("histogram abandon mismatch at %d: %d vs %d", i, exact[i].ID, ab[i].ID)
			}
		}
		if st.VectorsAbandoned == 0 {
			t.Error("abandon variant never abandoned a vector on skewed data")
		}

		exactE, _ := SearchEuclidean(vs, q, 10)
		abE, _ := SearchEuclideanAbandon(vs, q, 10, 8)
		for i := range exactE {
			if exactE[i].ID != abE[i].ID {
				t.Errorf("euclidean abandon mismatch at %d: %d vs %d", i, exactE[i].ID, abE[i].ID)
			}
		}
	}
}

func TestAbandonScansFewerValues(t *testing.T) {
	vs := dataset.CorelLike(500, 64, 9)
	q := vs[0]
	_, full := SearchHistogram(vs, q, 5)
	_, ab := SearchHistogramAbandon(vs, q, 5, 8)
	if ab.ValuesScanned >= full.ValuesScanned {
		t.Errorf("abandon scanned %d ≥ full scan %d", ab.ValuesScanned, full.ValuesScanned)
	}
}

// Property: SSH matches a brute-force reference on random histogram data.
func TestSearchHistogramMatchesBrute(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%60 + 2
		k := int(kRaw)%5 + 1
		vs := dataset.CorelLike(n, 12, seed)
		q := vs[int(seed&0x7)%n]
		got, _ := SearchHistogram(vs, q, k)
		want := bruteHistogram(vs, q, min(k, n))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for queries taken from the collection, the query itself is the
// 1-NN under both metrics.
func TestSelfIsNearest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := dataset.Uniform(40, 6, seed)
		qi := rng.Intn(len(vs))
		q := vs[qi]
		he, _ := SearchEuclidean(vs, q, 1)
		return he[0].ID == qi && he[0].Score == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

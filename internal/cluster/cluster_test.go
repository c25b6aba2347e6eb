package cluster

import (
	"errors"
	"math"
	"testing"

	"bond/internal/dataset"
	"bond/internal/vstore"
)

func clusteredStore(n, dims, clusters int, seed int64) *vstore.Store {
	cfg := dataset.DefaultClustered(n, dims, 0.5, seed)
	cfg.Clusters = clusters
	return vstore.FromVectors(dataset.Clustered(cfg))
}

func TestKMeansPrunedMatchesNaive(t *testing.T) {
	s := clusteredStore(500, 24, 8, 3)
	pruned, err := KMeans(s, Options{K: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := KMeans(s, Options{K: 8, Seed: 9, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pruned.Inertia-naive.Inertia) > 1e-9 {
		t.Errorf("inertia: pruned %v vs naive %v", pruned.Inertia, naive.Inertia)
	}
	if pruned.Iters != naive.Iters {
		t.Errorf("iters: pruned %d vs naive %d", pruned.Iters, naive.Iters)
	}
	for id := range pruned.Assignments {
		if pruned.Assignments[id] != naive.Assignments[id] {
			t.Fatalf("assignment of %d differs: %d vs %d",
				id, pruned.Assignments[id], naive.Assignments[id])
		}
	}
	if pruned.ValuesScanned >= naive.ValuesScanned {
		t.Errorf("pruned scanned %d ≥ naive %d", pruned.ValuesScanned, naive.ValuesScanned)
	}
}

func TestKMeansRecoversPlantedClusters(t *testing.T) {
	// Well-separated clusters: k-means must reach low inertia relative to
	// the single-cluster baseline.
	s := clusteredStore(600, 16, 5, 7)
	one, err := KMeans(s, Options{K: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	five, err := KMeans(s, Options{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if five.Inertia > one.Inertia/2 {
		t.Errorf("k=5 inertia %v not ≪ k=1 inertia %v", five.Inertia, one.Inertia)
	}
}

func TestKMeansInertiaMonotoneInK(t *testing.T) {
	s := clusteredStore(300, 12, 6, 5)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		res, err := KMeans(s, Options{K: k, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		// k-means++ with more centres on the same data should not be much
		// worse; strictly it is not guaranteed monotone per-seed, so allow
		// 10 % slack.
		if res.Inertia > prev*1.1 {
			t.Errorf("k=%d inertia %v ≫ previous %v", k, res.Inertia, prev)
		}
		if res.Inertia < prev {
			prev = res.Inertia
		}
	}
}

func TestKMeansAssignsAllLiveOnly(t *testing.T) {
	s := clusteredStore(100, 8, 3, 1)
	s.Delete(10)
	s.Delete(20)
	res, err := KMeans(s, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[10] != -1 || res.Assignments[20] != -1 {
		t.Error("deleted vectors must stay unassigned")
	}
	for id := 0; id < s.Len(); id++ {
		if id == 10 || id == 20 {
			continue
		}
		if c := res.Assignments[id]; c < 0 || c >= 3 {
			t.Fatalf("assignment[%d] = %d", id, c)
		}
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	s := clusteredStore(5, 4, 2, 1)
	res, err := KMeans(s, Options{K: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 5 {
		t.Errorf("centres = %d, want clamped to 5", len(res.Centers))
	}
}

func TestKMeansManyClustersCrossesWordBoundary(t *testing.T) {
	// k > 64 exercises the multi-word candidate masks.
	s := clusteredStore(400, 8, 70, 11)
	pruned, err := KMeans(s, Options{K: 70, Seed: 3, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := KMeans(s, Options{K: 70, Seed: 3, MaxIters: 3, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := range pruned.Assignments {
		if pruned.Assignments[id] != naive.Assignments[id] {
			t.Fatalf("assignment of %d differs with k=70", id)
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	s := clusteredStore(10, 4, 2, 1)
	if _, err := KMeans(s, Options{K: 0}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("K=0: %v", err)
	}
	if _, err := KMeans(s, Options{K: 2, MaxIters: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("MaxIters<0: %v", err)
	}
	for id := 0; id < 10; id++ {
		s.Delete(id)
	}
	if _, err := KMeans(s, Options{K: 2}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("empty: %v", err)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	s := clusteredStore(200, 8, 4, 6)
	a, _ := KMeans(s, Options{K: 4, Seed: 42})
	b, _ := KMeans(s, Options{K: 4, Seed: 42})
	if a.Inertia != b.Inertia {
		t.Error("same seed produced different inertia")
	}
	for id := range a.Assignments {
		if a.Assignments[id] != b.Assignments[id] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestKMeansDuplicatePointsCollapseCentres(t *testing.T) {
	// 30 points but only 3 distinct coordinates: asking for 10 clusters
	// must yield at most 3 centres, all distinct, with every point
	// assigned to a centre it coincides with.
	vecs := make([][]float64, 0, 30)
	distinct := [][]float64{{0.1, 0.1, 0.1}, {0.5, 0.5, 0.5}, {0.9, 0.9, 0.9}}
	for i := 0; i < 30; i++ {
		vecs = append(vecs, distinct[i%3])
	}
	s := vstore.FromVectors(vecs)
	res, err := KMeans(s, Options{K: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 3 {
		t.Fatalf("%d centres from 3 distinct points", len(res.Centers))
	}
	for i, a := range res.Centers {
		for j := i + 1; j < len(res.Centers); j++ {
			same := true
			for d := range a {
				if a[d] != res.Centers[j][d] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("centres %d and %d are duplicates", i, j)
			}
		}
	}
	if res.Inertia > 1e-20 {
		t.Errorf("inertia %v, want ≈0 (every point sits on a centre)", res.Inertia)
	}

	// The degenerate extreme: every point identical.
	same := vstore.FromVectors([][]float64{{0.3, 0.7}, {0.3, 0.7}, {0.3, 0.7}})
	res2, err := KMeans(same, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Centers) != 1 {
		t.Fatalf("%d centres from identical points, want 1", len(res2.Centers))
	}
}

func TestKMeansNaNSafeCentroidUpdates(t *testing.T) {
	// One poisoned coefficient must not propagate into any centroid: the
	// mean of the affected (cluster, dimension) keeps its previous value.
	vecs := [][]float64{
		{0.1, 0.1}, {0.12, 0.1}, {0.1, 0.14},
		{0.9, 0.9}, {0.88, 0.9}, {0.9, 0.86},
		{math.NaN(), 0.5},
	}
	s := vstore.FromVectors(vecs)
	res, err := KMeans(s, Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, ctr := range res.Centers {
		for d, x := range ctr {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("centre %d dim %d is %v", c, d, x)
			}
		}
	}
	// The finite points still split into the two planted groups.
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[3] != res.Assignments[4] {
		t.Error("finite points of one planted cluster split across centres")
	}
	if len(res.Centers) > 1 && res.Assignments[0] == res.Assignments[3] {
		t.Error("the two planted clusters merged despite 2 centres")
	}
	// And the NaN row is assigned deterministically, identically to naive.
	naive, err := KMeans(s, Options{K: 2, Seed: 3, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := range res.Assignments {
		if res.Assignments[id] != naive.Assignments[id] {
			t.Fatalf("assignment of %d differs from naive under NaN input", id)
		}
	}
}

func TestResultGroupsPartitionLiveIDs(t *testing.T) {
	s := clusteredStore(200, 8, 4, 9)
	s.Delete(7)
	s.Delete(150)
	res, err := KMeans(s, Options{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Groups()
	if len(groups) != len(res.Centers) {
		t.Fatalf("%d groups for %d centres", len(groups), len(res.Centers))
	}
	seen := make(map[int]bool)
	for c, grp := range groups {
		prev := -1
		for _, id := range grp {
			if id <= prev {
				t.Fatalf("group %d not ascending at id %d", c, id)
			}
			prev = id
			if res.Assignments[id] != c {
				t.Fatalf("id %d in group %d but assigned to %d", id, c, res.Assignments[id])
			}
			if seen[id] {
				t.Fatalf("id %d in two groups", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 198 {
		t.Fatalf("groups cover %d ids, want 198", len(seen))
	}
	if seen[7] || seen[150] {
		t.Fatal("deleted ids must not appear in any group")
	}
}

func BenchmarkKMeansPruned(b *testing.B) {
	s := clusteredStore(2000, 32, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(s, Options{K: 16, Seed: 1, MaxIters: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansNaive(b *testing.B) {
	s := clusteredStore(2000, 32, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(s, Options{K: 16, Seed: 1, MaxIters: 5, NoPrune: true}); err != nil {
			b.Fatal(err)
		}
	}
}

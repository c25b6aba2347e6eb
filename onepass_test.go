package bond

import (
	"math"
	"math/rand"
	"testing"

	"bond/internal/dataset"
	"bond/internal/topk"
)

// TestOnePassPropertyMatchesExact holds the one-pass route to the exact
// scan: on cluster-contiguous, uniform and mixed (tight and wide segments
// in one collection) layouts, with deletes, exclusions, unweighted,
// weighted and subspace Eq queries and k both small and above the live
// count, forced BOND — alone and in a batch — and auto
// answer with the ids and score bits of StrategyExact. A BOND segment whose
// synopsis proves every pruning attempt futile is read in one storage-order
// pass; the clustered and mixed layouts must take that route at least once.
func TestOnePassPropertyMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, layout := range []string{"clustered", "uniform", "mixed"} {
		onePass := 0
		for trial := 0; trial < 4; trial++ {
			dims := 8 + rng.Intn(40)
			segSize := 30 + rng.Intn(70)
			n := segSize*(3+rng.Intn(5)) + rng.Intn(segSize) // the tail stays in the active segment
			vectors := layoutRows(rng, layout, n, dims, segSize)
			col := NewCollectionSegmented(vectors, segSize)
			for _, id := range rng.Perm(n)[:n/25] {
				deleteIDs(t, col, id)
			}
			excl := col.NewExclusion()
			for i := 0; i < n/25; i++ {
				excl.Set(rng.Intn(n))
			}
			weights := make([]float64, dims)
			for d := range weights {
				weights[d] = 0.5 + 1.5*rng.Float64()
			}
			weights[rng.Intn(dims)] = 0
			subspace := rng.Perm(dims)[:1+rng.Intn(dims)]

			var specs []QuerySpec
			for qi := 0; qi < 4; qi++ {
				q := vectors[rng.Intn(n)]
				if qi == 3 { // a query away from every cluster
					q = dataset.Uniform(1, dims, rng.Int63())[0]
				}
				for _, k := range []int{1 + rng.Intn(10), n + 3} {
					base := QuerySpec{Query: q, K: k, Criterion: Eq}
					variants := []QuerySpec{base, base, base, base}
					variants[1].Weights = weights
					variants[2].Dims = subspace
					variants[3].Exclude = excl
					specs = append(specs, variants...)
				}
			}
			var bondSpecs []QuerySpec
			for _, spec := range specs {
				exact := spec
				exact.Strategy = StrategyExact
				want, err := col.Query(exact)
				if err != nil {
					t.Fatal(err)
				}
				for _, strat := range []Strategy{StrategyBOND, StrategyAuto} {
					spec.Strategy = strat
					got, p, err := col.QueryExplain(spec)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, layout+"/"+strat.String(), got.Results, want.Results)
					for _, st := range p.Steps {
						if st.OnePass {
							onePass++
						}
					}
				}
				spec.Strategy = StrategyBOND
				bondSpecs = append(bondSpecs, spec)
			}
			batch, err := col.QueryBatch(bondSpecs)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range bondSpecs {
				spec.Strategy = StrategyExact
				want, _ := col.Query(spec)
				sameBits(t, layout+"/batch", batch[i].Results, want.Results)
			}
		}
		t.Logf("%s: %d one-pass segment runs", layout, onePass)
		if layout != "uniform" && onePass == 0 {
			t.Errorf("%s: no segment took the one-pass route", layout)
		}
	}
}

// layoutRows generates n rows of dims coordinates in blocks of segSize:
// every block a box of width 0.03 around its own uniform centre, clamped
// to the unit cube ("clustered": the skip_clustered workload's generator),
// uniform rows ("uniform"), or the two alternating block by block
// ("mixed").
func layoutRows(rng *rand.Rand, layout string, n, dims, segSize int) [][]float64 {
	out := make([][]float64, n)
	center := make([]float64, dims)
	for i := range out {
		block := i / segSize
		if i%segSize == 0 {
			for d := range center {
				center[d] = rng.Float64()
			}
		}
		tight := layout == "clustered" || layout == "mixed" && block%2 == 0
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64()
			if tight {
				v[d] = min(max(center[d]+0.03*(v[d]-0.5), 0), 1)
			}
		}
		out[i] = v
	}
	return out
}

// sameBits fails unless got and want list the same ids with the same score
// bits.
func sameBits(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, exact has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d: id %d score %v, exact id %d score %v",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// TestOnePassSkipClusteredCounts counts the work of forced-BOND Eq queries
// on the skip_clustered shape (24 000 × 64 in cluster-contiguous blocks of
// 250, segments of 250): synopsis skipping leaves the query's own segment,
// whose box is too tight for any pruning attempt to remove a row. It is read
// in one pass and logs no pruning attempt, and the query reads exactly the
// cells a BOND run that prunes nothing reads: every cell of every segment
// it searches, as the exact scan does.
func TestOnePassSkipClusteredCounts(t *testing.T) {
	const dims, seg = 64, 250
	vs := layoutRows(rand.New(rand.NewSource(1)), "clustered", 24000, dims, seg)
	queries, _ := dataset.SampleQueries(vs, 64, 2)
	col := NewCollectionSegmented(vs, seg)
	for i, q := range queries {
		spec := QuerySpec{Query: q, K: 10, Criterion: Eq, Strategy: StrategyBOND}
		res, p, err := col.QueryExplain(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SegmentsSearched != 1 {
			t.Fatalf("query %d searched %d segments, want 1", i, res.Stats.SegmentsSearched)
		}
		for _, st := range p.Steps {
			if st.Executed && !st.OnePass {
				t.Fatalf("query %d: segment %d ran BOND's pruning steps", i, st.Segment)
			}
		}
		if len(res.Stats.Steps) != 0 {
			t.Fatalf("query %d logged %d pruning attempts, want 0", i, len(res.Stats.Steps))
		}
		spec.Strategy = StrategyExact
		exact, err := col.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ValuesScanned != seg*dims || exact.Stats.ValuesScanned != seg*dims {
			t.Fatalf("query %d read %d cells (exact %d), want %d", i, res.Stats.ValuesScanned, exact.Stats.ValuesScanned, seg*dims)
		}
		sameBits(t, "skip_clustered", res.Results, exact.Results)
	}
}

package bond

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// allocBudget is the steady-state allocation ceiling per Query: the
// returned result list and the backing array of its step logs. Everything
// else — plan, engine scratch, heaps, bound tables, candidate lists — is
// pooled per collection.
const allocBudget = 2

func allocTestCollection(t testing.TB, n, dims, segSize int) (*Collection, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	vectors := make([][]float64, n)
	for i := range vectors {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors[i] = v
	}
	return NewCollectionSegmented(vectors, segSize), vectors
}

// TestQueryAllocationBudget pins the hot-path pooling contract: after
// warm-up, Collection.Query performs at most allocBudget allocations per
// call on every access path, for both a histogram and a Euclidean
// criterion, and on the BOND path for subspace and weighted queries under
// every criterion that takes them.
func TestQueryAllocationBudget(t *testing.T) {
	col, vectors := allocTestCollection(t, 1200, 24, 300)

	type pathCase struct {
		name string
		spec QuerySpec
	}
	var cases []pathCase
	for _, strat := range []Strategy{StrategyAuto, StrategyBOND, StrategyCompressed, StrategyVAFile, StrategyExact} {
		for _, crit := range []Criterion{Hq, Eq} {
			cases = append(cases, pathCase{fmt.Sprintf("%v_%v", crit, strat),
				QuerySpec{Criterion: crit, Strategy: strat}})
		}
	}
	// Subspace and weighted BOND (the weights include zeros): the effective
	// weights and the zero-weight dimension list are per-query state, built
	// once into the pooled executor scratch, not once per segment.
	dims := []int{1, 4, 9, 16, 20}
	weights := make([]float64, 24)
	for d := range weights {
		weights[d] = float64(d % 4)
	}
	for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
		cases = append(cases, pathCase{fmt.Sprintf("%v_bond_dims", crit),
			QuerySpec{Criterion: crit, Strategy: StrategyBOND, Dims: dims}})
		if crit != Hh { // Hh takes no weights
			cases = append(cases, pathCase{fmt.Sprintf("%v_bond_weights", crit),
				QuerySpec{Criterion: crit, Strategy: StrategyBOND, Weights: weights}})
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Query, spec.K = vectors[7], 10
			// Warm the pools, the lazy codes, and the buffer high-water marks.
			for i := 0; i < 8; i++ {
				if _, err := col.Query(spec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := col.Query(spec); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > allocBudget {
				t.Errorf("Query %s: %.1f allocs/op, budget %d", tc.name, allocs, allocBudget)
			}
		})
	}
}

// TestQueryBatchAllocationPerQuery checks that QueryBatch stays within a
// small per-query allocation budget too: the per-query results (list +
// steps) plus the batch's own fixed setup amortized across its queries.
func TestQueryBatchAllocationPerQuery(t *testing.T) {
	col, vectors := allocTestCollection(t, 1200, 24, 300)
	specs := make([]QuerySpec, 32)
	for i := range specs {
		specs[i] = QuerySpec{Query: vectors[i], K: 10}
	}
	for i := 0; i < 4; i++ {
		if _, err := col.QueryBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := col.QueryBatch(specs); err != nil {
			t.Fatal(err)
		}
	})
	perQuery := allocs / float64(len(specs))
	// Budget: the two per-query result allocations plus one for batch
	// bookkeeping (result slice, feedback block, goroutine stacks)
	// amortized over the batch.
	if perQuery > allocBudget+1 {
		t.Errorf("QueryBatch: %.2f allocs per query (%.0f total), budget %d",
			perQuery, allocs, allocBudget+1)
	}
}

// TestQueryBatchMatchesQuery pins QueryBatch's contract: positionally
// aligned results identical to issuing each spec through Query.
func TestQueryBatchMatchesQuery(t *testing.T) {
	col, vectors := allocTestCollection(t, 900, 16, 200)
	var specs []QuerySpec
	for i, crit := range []Criterion{Hq, Eq, Ev, Hh} {
		for _, strat := range []Strategy{StrategyAuto, StrategyBOND, StrategyExact} {
			specs = append(specs, QuerySpec{
				Query: vectors[13*i%len(vectors)], K: 3 + i, Criterion: crit, Strategy: strat,
			})
		}
	}
	batch, err := col.QueryBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(batch), len(specs))
	}
	for i, spec := range specs {
		single, err := col.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i].Results) != len(single.Results) {
			t.Fatalf("spec %d: batch %d results, single %d", i, len(batch[i].Results), len(single.Results))
		}
		for r := range single.Results {
			b, s := batch[i].Results[r], single.Results[r]
			// IDs must match exactly; scores within an ulp-scale tolerance
			// (an Auto spec may legitimately take a different access path
			// than the later single query, as the model kept learning).
			diff := b.Score - s.Score
			if b.ID != s.ID || diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("spec %d rank %d: batch %+v, single %+v", i, r, b, s)
			}
		}
	}

	// An invalid spec aborts the batch with its index in the error.
	if _, err := col.QueryBatch([]QuerySpec{{Query: vectors[0], K: 0}}); err == nil {
		t.Fatal("expected error for K=0 spec")
	}
}

// TestQueryBatchConcurrentWithWriters drives QueryBatch against concurrent
// Add, Delete, and Compact traffic; run under -race this pins the
// concurrency contract of the batch path (one consistent snapshot per
// batch, writers serialized).
func TestQueryBatchConcurrentWithWriters(t *testing.T) {
	col, vectors := allocTestCollection(t, 800, 12, 200)
	specs := make([]QuerySpec, 16)
	for i := range specs {
		specs[i] = QuerySpec{Query: vectors[i], K: 5}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch rng.Intn(3) {
			case 0:
				v := make([]float64, 12)
				for d := range v {
					v[d] = rng.Float64()
				}
				col.Add(v)
			case 1:
				col.Delete(rng.Intn(800))
			case 2:
				col.CompactRatio(0.5)
			}
		}
	}()

	for iter := 0; iter < 30; iter++ {
		res, err := col.QueryBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if len(res[i].Results) == 0 {
				t.Fatalf("iter %d query %d: empty result", iter, i)
			}
		}
	}
	close(stop)
	wg.Wait()
}

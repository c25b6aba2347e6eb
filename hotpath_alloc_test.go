package bond

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
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
// every criterion that takes them — and on 1 536 cluster-contiguous
// segments, whose per-segment prefix bounds the planner keeps in a heap
// pooled with the plan.
func TestQueryAllocationBudget(t *testing.T) {
	col, vectors := allocTestCollection(t, 1200, 24, 300)
	const blocks, perBlock = 1536, 4
	clustered := clusterBlocks(blocks, perBlock, 24, 5)
	ccol := NewCollectionSegmented(clustered, perBlock)

	type pathCase struct {
		name string
		spec QuerySpec
		col  *Collection
	}
	var cases []pathCase
	for _, strat := range []Strategy{StrategyAuto, StrategyBOND, StrategyCompressed, StrategyVAFile, StrategyExact} {
		for _, crit := range []Criterion{Hq, Eq} {
			cases = append(cases, pathCase{fmt.Sprintf("%v_%v", crit, strat),
				QuerySpec{Criterion: crit, Strategy: strat}, nil})
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
			QuerySpec{Criterion: crit, Strategy: StrategyBOND, Dims: dims}, nil})
		if crit != Hh { // Hh takes no weights
			cases = append(cases, pathCase{fmt.Sprintf("%v_bond_weights", crit),
				QuerySpec{Criterion: crit, Strategy: StrategyBOND, Weights: weights}, nil})
		}
	}

	for _, crit := range []Criterion{Eq, Hq} {
		cases = append(cases, pathCase{fmt.Sprintf("%v_clustered_%d", crit, blocks),
			QuerySpec{Criterion: crit, Query: clustered[7]}, ccol})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, c := tc.spec, tc.col
			if c == nil {
				spec.Query, c = vectors[7], col
			}
			spec.K = 10
			// Warm the pools, the lazy codes, and the buffer high-water marks.
			for i := 0; i < 8; i++ {
				if _, err := c.Query(spec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := c.Query(spec); err != nil {
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
// steps) plus the batch's own fixed setup amortized across its queries —
// for a batch smaller than one co-scheduled group, one that fills a group
// per worker, and one that takes several: the plans a worker holds in
// flight and its lane all come back from the pools.
func TestQueryBatchAllocationPerQuery(t *testing.T) {
	col, vectors := allocTestCollection(t, 1200, 24, 300)
	for _, n := range []int{3, 32, 64} {
		specs := make([]QuerySpec, n)
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
		// bookkeeping (result slice, goroutine stacks) amortized over the
		// batch.
		if perQuery > allocBudget+1 {
			t.Errorf("QueryBatch of %d: %.2f allocs per query (%.0f total), budget %d",
				n, perQuery, allocs, allocBudget+1)
		}
	}
}

// batchMatchesQuery runs specs as one batch and one by one, and holds the
// batch to the single answers exactly: ids, score bits and the whole Stats
// block (cells read, segments searched and skipped, the step log).
func batchMatchesQuery(t *testing.T, col *Collection, specs []QuerySpec) {
	t.Helper()
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
		if len(batch[i].Results) != len(single.Results) || batch[i].Truncated != single.Truncated {
			t.Fatalf("spec %d: batch %d results (truncated %v), single %d (%v)", i,
				len(batch[i].Results), batch[i].Truncated, len(single.Results), single.Truncated)
		}
		for r := range single.Results {
			if b, s := batch[i].Results[r], single.Results[r]; b != s {
				t.Fatalf("spec %d rank %d: batch %+v, single %+v", i, r, b, s)
			}
		}
		if !reflect.DeepEqual(batch[i].Stats, single.Stats) {
			t.Fatalf("spec %d: batch stats %+v, single %+v", i, batch[i].Stats, single.Stats)
		}
	}
}

// TestQueryBatchMatchesQuery pins QueryBatch's contract: positionally
// aligned results identical to issuing each spec through Query, however the
// specs are grouped and interleaved.
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
	// One group also carries a query whose deadline is far off, one whose
	// deadline has passed (no segment runs: truncated, empty), the
	// compressed and VA-File paths, and a K above any segment's size.
	specs = append(specs,
		QuerySpec{Query: vectors[6], K: 4, Criterion: Hq, Strategy: StrategyBOND, Deadline: time.Now().Add(time.Hour)},
		QuerySpec{Query: vectors[7], K: 4, Criterion: Eq, Strategy: StrategyBOND, Deadline: time.Now().Add(-time.Second)},
		QuerySpec{Query: vectors[8], K: 4, Criterion: Eq, Strategy: StrategyCompressed},
		QuerySpec{Query: vectors[9], K: 4, Criterion: Hq, Strategy: StrategyVAFile},
		QuerySpec{Query: vectors[10], K: 250, Criterion: Ev, Strategy: StrategyBOND},
	)
	batchMatchesQuery(t, col, specs)

	// Cluster-contiguous segments: every query sits in its own cluster, so
	// each has its own segment order and skips almost every segment. A query
	// co-scheduled with others must search exactly the segments it would
	// have searched alone (the Stats comparison counts them).
	const blocks, perBlock = 24, 50
	clustered := clusterBlocks(blocks, perBlock, 16, 77)
	ccol := NewCollectionSegmented(clustered, perBlock)
	specs = specs[:0]
	for i := 0; i < 40; i++ {
		crit := []Criterion{Eq, Hq, Ev, Hh}[i%4]
		specs = append(specs, QuerySpec{
			Query: clustered[(i*131)%len(clustered)], K: 1 + i%7, Criterion: crit,
			Strategy: []Strategy{StrategyBOND, StrategyExact, StrategyAuto}[i%3],
		})
	}
	batchMatchesQuery(t, ccol, specs)
	single, err := ccol.Query(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.Stats.SegmentsSkipped < blocks/2 {
		t.Fatalf("the clustered fixture skips only %d of %d segments", single.Stats.SegmentsSkipped, blocks)
	}

	// A failing spec aborts the batch with the lowest failing index in the
	// error, wherever in a group it sits.
	specs[31].K, specs[9].K = 0, 0
	if _, err := ccol.QueryBatch(specs); err == nil || !strings.Contains(err.Error(), "batch query 9:") {
		t.Fatalf("want the error of spec 9, got %v", err)
	}
	if _, err := col.QueryBatch([]QuerySpec{{Query: vectors[0], K: 0}}); err == nil {
		t.Fatal("expected error for K=0 spec")
	}
}

// TestQueryBatchConcurrentWithWriters drives QueryBatch against concurrent
// appends, deletes and compactions; run under -race this pins the
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
			var err error
			switch rng.Intn(3) {
			case 0:
				v := make([]float64, 12)
				for d := range v {
					v[d] = rng.Float64()
				}
				_, err = col.AddDurable(v)
			case 1:
				_, err = col.TryDeleteDurable(rng.Intn(800))
			case 2:
				_, err = col.CompactRatioDurable(0.5)
			}
			if err != nil {
				t.Error(err)
				return
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

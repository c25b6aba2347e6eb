package bond

import (
	"math/rand"
	"sync"
	"testing"

	"bond/internal/seqscan"
)

// The concurrency stress test runs searchers of every flavor against one
// Collection while a mutator appends, deletes, and compacts — and asserts
// that every single result set is exact.
//
// Exactness under concurrent mutation is made checkable by construction:
// a "stable" prefix of vectors lives near the query (high similarity, low
// distance) in its own sealed segments and is never touched, while all
// churn happens to "far" vectors whose best possible score can never
// reach the stable top-k. Whatever interleaving a search observes, its
// exact answer is therefore the stable top-k, which a sequential scan
// computes up front.

const (
	stressDims   = 12
	stressStable = 320
	stressK      = 5
	stressSeg    = 64
)

// stressQuery concentrates its mass on dimensions 0–5.
func stressQuery() []float64 {
	q := make([]float64, stressDims)
	for d := 0; d < 6; d++ {
		q[d] = 0.5
	}
	return q
}

// stableVectors sit within ±0.05 of the query: histogram similarity well
// above 2, squared distance below 0.02.
func stableVectors(rng *rand.Rand) [][]float64 {
	q := stressQuery()
	out := make([][]float64, stressStable)
	for i := range out {
		v := make([]float64, stressDims)
		for d := 0; d < 6; d++ {
			v[d] = q[d] - 0.05 + 0.1*rng.Float64()
		}
		out[i] = v
	}
	return out
}

// churnVector has disjoint support (dimensions 6–11): histogram
// intersection with the query is exactly 0, squared distance at least
// 6·0.5² + 6·0.7² — hopeless against every stable vector.
func churnVector(rng *rand.Rand) []float64 {
	v := make([]float64, stressDims)
	for d := 6; d < stressDims; d++ {
		v[d] = 0.7 + 0.2*rng.Float64()
	}
	return v
}

func TestConcurrentSearchExactAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	stable := stableVectors(rng)
	col := NewSegmented(stressDims, stressSeg)
	if _, err := col.AddBatchDurable(stable); err != nil {
		t.Fatal(err)
	}
	// Churn never shares a segment with stable vectors.
	if err := col.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	q := stressQuery()

	// Oracles, computed sequentially before any concurrency starts. The
	// compressed path accumulates refine scores in a different dimension
	// order, so it gets its own oracle.
	oracleHq, _ := seqscan.SearchHistogram(stable, q, stressK)
	oracleEv, _ := seqscan.SearchEuclidean(stable, q, stressK)
	searchHq, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Hq, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	searchEv, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Ev, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	compressedHq, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Hq, Strategy: StrategyCompressed})
	if err != nil {
		t.Fatal(err)
	}
	// The engine oracles must agree with the sequential scan (tolerating
	// summation-order ulps in the scores, not in the ids).
	for i := range oracleHq {
		if searchHq.Results[i].ID != oracleHq[i].ID {
			t.Fatalf("Hq oracle rank %d: engine id %d, scan id %d", i, searchHq.Results[i].ID, oracleHq[i].ID)
		}
		if searchEv.Results[i].ID != oracleEv[i].ID {
			t.Fatalf("Ev oracle rank %d: engine id %d, scan id %d", i, searchEv.Results[i].ID, oracleEv[i].ID)
		}
	}

	check := func(t *testing.T, label string, got []Neighbor, want []Neighbor) {
		if len(got) != len(want) {
			t.Errorf("%s: %d results, want %d", label, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s rank %d: {%d %v}, want {%d %v}", label, i,
					got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				return
			}
		}
	}

	const (
		readerIters  = 120
		mutatorIters = 400
	)
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readerIters; i++ {
				fn(i)
			}
		}()
	}

	// Searchers: plain, compressed, multi-feature over a snapshot.
	run(func(i int) {
		res, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Hq, Strategy: StrategyBOND})
		if err != nil {
			t.Error(err)
			return
		}
		check(t, "Search/Hq", res.Results, searchHq.Results)
	})
	run(func(i int) {
		res, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Ev, Strategy: StrategyBOND})
		if err != nil {
			t.Error(err)
			return
		}
		check(t, "Search/Ev", res.Results, searchEv.Results)
	})
	run(func(i int) {
		res, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Hq, Strategy: StrategyCompressed})
		if err != nil {
			t.Error(err)
			return
		}
		check(t, "SearchCompressed/Hq", res.Results, compressedHq.Results)
	})
	run(func(i int) {
		// The snapshot is taken under the lock and searched after it is
		// released, while the mutator runs.
		feat := col.AsFeature(q, 1)
		res, err := MultiSearch([]Feature{feat}, MultiOptions{K: stressK, Step: 3})
		if err != nil {
			t.Error(err)
			return
		}
		check(t, "MultiSearch/Hq", res.Results, searchHq.Results)
	})

	// Mutator: appends churn, deletes some of it, compacts periodically.
	// A single goroutine owns all writes so the ids it deletes are always
	// current (Compact remaps churn ids, never stable ones).
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(7))
		for i := 0; i < mutatorIters; i++ {
			id, err := col.AddDurable(churnVector(mrng))
			if err == nil && i%3 != 0 {
				_, err = col.TryDeleteDurable(id)
			}
			if err == nil && i%61 == 60 {
				_, err = col.CompactRatioDurable(0)
			}
			if err == nil && i%97 == 96 {
				_, err = col.CompactRatioDurable(0.4)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()

	// After the dust settles the stable answer is unchanged, and the
	// stable prefix was never remapped.
	res, err := col.Query(QuerySpec{Query: q, K: stressK, Criterion: Hq, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "post-stress Search/Hq", res.Results, searchHq.Results)
	for i, v := range stable[:5] {
		got := col.Vector(i)
		for d := range v {
			if got[d] != v[d] {
				t.Fatalf("stable vector %d changed", i)
			}
		}
	}
}

package bond

import (
	"math/rand"
	"sync"
	"testing"
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

	// The answers every searcher must give, whatever the writer does: the
	// scan's over the stable rows, and MultiSearch's own (its scores fall
	// outside the contract), taken before any concurrency starts.
	specHq := QuerySpec{Query: q, K: stressK, Criterion: Hq, Strategy: StrategyBOND}
	specEv := QuerySpec{Query: q, K: stressK, Criterion: Ev, Strategy: StrategyBOND}
	wantHq, wantEv := scanAnswer(stable, nil, specHq), scanAnswer(stable, nil, specEv)
	multi, err := MultiSearch([]Feature{col.AsFeature(q, 1)}, MultiOptions{K: stressK, Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !assertMultiSearchAnswer(t, "MultiSearch/Hq before the writer", multi.Results, wantHq) {
		t.FailNow()
	}
	query := func(label string, spec QuerySpec, want []Neighbor) {
		res, err := col.Query(spec)
		if err != nil {
			t.Error(err)
			return
		}
		assertSameAnswer(t, label, res.Results, want)
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
	compressedHq := specHq
	compressedHq.Strategy = StrategyCompressed
	run(func(i int) { query("Search/Hq", specHq, wantHq) })
	run(func(i int) { query("Search/Ev", specEv, wantEv) })
	run(func(i int) { query("SearchCompressed/Hq", compressedHq, wantHq) })
	run(func(i int) {
		// The snapshot is taken under the lock and searched after it is
		// released, while the mutator runs.
		feat := col.AsFeature(q, 1)
		res, err := MultiSearch([]Feature{feat}, MultiOptions{K: stressK, Step: 3})
		if err != nil {
			t.Error(err)
			return
		}
		assertSameAnswer(t, "MultiSearch/Hq", res.Results, multi.Results)
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
	query("post-stress Search/Hq", specHq, wantHq)
	for i, v := range stable[:5] {
		got := col.Vector(i)
		for d := range v {
			if got[d] != v[d] {
				t.Fatalf("stable vector %d changed", i)
			}
		}
	}
}

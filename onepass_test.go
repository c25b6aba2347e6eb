package bond

import (
	"math/rand"
	"testing"

	"bond/internal/dataset"
)

// TestOnePassPropertyMatchesExact holds the one-pass route to the oracle:
// a BOND segment whose synopsis proves every pruning attempt futile is read
// in one storage-order pass, and forced BOND and auto Eq queries (plain,
// weighted and subspace, k small and above the live count, with deletes
// and exclusions) answer as the scan does on cluster-contiguous, uniform
// and mixed layouts. The clustered and mixed layouts must take the route
// at least once.
func TestOnePassPropertyMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, layout := range []string{"clustered", "uniform", "mixed"} {
		onePass := 0
		for trial := 0; trial < 4; trial++ {
			col, rows, deleted := oracleCollection(t, rng, layout)
			excl := randomExclusion(rng, col, len(rows))
			for _, spec := range oracleSpecs(rng, rows, rows[rng.Intn(len(rows))], excl) {
				if spec.Criterion != Eq {
					continue
				}
				want := scanAnswer(rows, deleted, spec)
				for _, strat := range []Strategy{StrategyBOND, StrategyAuto} {
					spec.Strategy = strat
					got, p, err := col.QueryExplain(spec)
					if err != nil {
						t.Fatal(err)
					}
					if !assertSameAnswer(t, layout+"/"+strat.String(), got.Results, want) {
						t.FailNow()
					}
					for _, st := range p.Steps {
						if st.OnePass {
							onePass++
						}
					}
				}
			}
		}
		t.Logf("%s: %d one-pass segment runs", layout, onePass)
		if layout != "uniform" && onePass == 0 {
			t.Errorf("%s: no segment took the one-pass route", layout)
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
		assertSameAnswer(t, "skip_clustered", res.Results, exact.Results)
	}
}

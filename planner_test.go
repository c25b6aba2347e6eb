package bond

import (
	"math/rand"
	"testing"

	"bond/internal/topk"
)

// oracleScan is the sequential-scan oracle of the planner property test:
// exact scores over the live vectors, ranked with the same
// score-then-id tie-break every engine path uses.
func oracleScan(vectors [][]float64, deleted map[int]bool, q []float64, k int, dist bool) []topk.Result {
	var h *topk.Heap
	if dist {
		h = topk.NewSmallest(k)
	} else {
		h = topk.NewLargest(k)
	}
	for id, v := range vectors {
		if deleted[id] {
			continue
		}
		s := 0.0
		for d, x := range v {
			if dist {
				diff := x - q[d]
				s += diff * diff
			} else if x < q[d] {
				s += x
			} else {
				s += q[d]
			}
		}
		h.Push(id, s)
	}
	return h.Results()
}

func assertMatchesOracle(t *testing.T, label string, got []topk.Result, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s rank %d: id %d, oracle id %d", label, i, got[i].ID, want[i].ID)
		}
		diff := got[i].Score - want[i].Score
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s rank %d: score %v, oracle %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestPlannerStrategiesMatchOracle is the planner property test: on
// randomized data, segment layouts, deletions, and queries, every plan
// the planner can emit — each strategy forced in turn, plus auto and the
// parallel fan-out — returns results identical to the sequential-scan
// oracle, as do SearchProgressive and MultiSearch.
func TestPlannerStrategiesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		n := 80 + rng.Intn(250)
		dims := 6 + rng.Intn(18)
		segSize := 24 + rng.Intn(60)
		clustered := trial%2 == 0

		vectors := make([][]float64, 0, n)
		center := make([]float64, dims)
		for i := 0; i < n; i++ {
			if clustered && i%segSize == 0 {
				for d := range center {
					center[d] = rng.Float64()
				}
			}
			v := make([]float64, dims)
			for d := range v {
				if clustered {
					x := center[d] + 0.05*(rng.Float64()-0.5)
					if x < 0 {
						x = 0
					}
					if x > 1 {
						x = 1
					}
					v[d] = x
				} else {
					v[d] = rng.Float64()
				}
			}
			vectors = append(vectors, v)
		}
		col := NewCollectionSegmented(vectors, segSize)

		// A few appends land in the mutable active segment, so plans mix
		// sealed paths with the exact-scan fallback.
		extra := 1 + rng.Intn(10)
		for i := 0; i < extra; i++ {
			v := make([]float64, dims)
			for d := range v {
				v[d] = rng.Float64()
			}
			col.Add(v)
			vectors = append(vectors, v)
		}

		deleted := map[int]bool{}
		for i := 0; i < len(vectors)/20; i++ {
			id := rng.Intn(len(vectors))
			col.Delete(id)
			deleted[id] = true
		}

		k := 1 + rng.Intn(12)
		q := vectors[rng.Intn(len(vectors))]

		for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
			want := oracleScan(vectors, deleted, q, k, crit.Distance())

			strategies := []Strategy{StrategyAuto, StrategyBOND, StrategyExact}
			if crit == Hq || crit == Eq {
				strategies = append(strategies, StrategyCompressed, StrategyVAFile)
			}
			for _, strat := range strategies {
				res, err := col.Query(QuerySpec{Query: q, K: k, Criterion: crit, Strategy: strat})
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, crit, strat, err)
				}
				assertMatchesOracle(t, crit.String()+"/"+strat.String(), res.Results, want)
			}
			// Parallel fan-out plans must merge to the same answer.
			res, err := col.Query(QuerySpec{Query: q, K: k, Criterion: crit, Parallel: 4})
			if err != nil {
				t.Fatalf("trial %d %v/parallel: %v", trial, crit, err)
			}
			assertMatchesOracle(t, crit.String()+"/parallel", res.Results, want)

			// Forced BOND with every segment fanned out.
			res, err = col.Query(QuerySpec{Query: q, K: k, Criterion: crit, Strategy: StrategyBOND, Parallel: 4})
			if err != nil {
				t.Fatalf("trial %d %v/bond-parallel: %v", trial, crit, err)
			}
			assertMatchesOracle(t, crit.String()+"/bond-parallel", res.Results, want)
			prog, err := col.SearchProgressive(QuerySpec{Query: q, K: k, Criterion: crit})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, crit.String()+"/SearchProgressive", prog.Finish().Results, want)
			if crit == Hq {
				// A single weight-1 histogram feature aggregates to the
				// plain intersection score.
				multi, err := MultiSearch([]Feature{col.AsFeature(q, 1)}, MultiOptions{K: k})
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesOracle(t, "Hq/MultiSearch", multi.Results, want)
			}
		}
	}
}

// TestPlannerModelPersistence checks that learned cost coefficients
// survive Save/Open — the reopened collection plans from its history, not
// the priors.
func TestPlannerModelPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vectors := make([][]float64, 300)
	for i := range vectors {
		v := make([]float64, 8)
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors[i] = v
	}
	col := NewCollectionSegmented(vectors, 100)
	for i := 0; i < 8; i++ {
		if _, err := col.Query(QuerySpec{Query: vectors[i], K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	learned := col.PlannerStats()
	if learned == (PlannerCoefficients{}) || learned.Queries == 0 {
		t.Fatal("no feedback recorded")
	}

	path := t.TempDir() + "/model.bond"
	if err := col.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.PlannerStats(); got != learned {
		t.Fatalf("reopened coefficients %+v, want %+v", got, learned)
	}
}

// TestMultiResultOrderIndependence pins the query-result contract the
// planner relies on: forcing each strategy through QueryExplain yields a
// plan whose executed steps report actual costs, and the explain text is
// non-empty before and after execution.
func TestQueryExplainReportsActuals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vectors := make([][]float64, 400)
	for i := range vectors {
		v := make([]float64, 10)
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors[i] = v
	}
	col := NewCollectionSegmented(vectors, 100)
	res, p, err := col.QueryExplain(QuerySpec{Query: vectors[0], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results", len(res.Results))
	}
	executed := 0
	for _, st := range p.Steps {
		if st.Executed {
			executed++
			if st.ActualCost <= 0 {
				t.Errorf("segment %d executed with actual cost %v", st.Segment, st.ActualCost)
			}
		}
	}
	if executed == 0 {
		t.Fatal("no step executed")
	}
	if p.Explain() == "" {
		t.Fatal("empty explain")
	}
}

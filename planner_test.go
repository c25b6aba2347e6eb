package bond

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bond/internal/plan"
	"bond/internal/topk"
	"bond/internal/vstore"
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

// TestOpenDurableOlderStatsBlock opens a durable directory whose MANIFEST
// carries the statistics block as written before the time coefficients
// were retired (thirteen keys): the selectivities and the query count are
// restored, and auto plans and answers from them.
func TestOpenDurableOlderStatsBlock(t *testing.T) {
	dir, vectors, _ := buildMmapFixture(t, 300, 8, 100, 5)
	path := filepath.Join(dir, vstore.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vstore.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	m.PlannerStats = []byte(`{"queries":1,"bond_frac":0.46,"compr_filter_frac":0.6,"compr_survive":0.05,"va_survive":0.044,` +
		`"bond_ns_per_cell":2.9,"compr_ns_per_cell":3,"va_ns_per_cell":3,"exact_ns_per_cell":3,` +
		`"bond_ns_per_cell_mapped":3,"compr_ns_per_cell_mapped":3,"va_ns_per_cell_mapped":3.2,"exact_ns_per_cell_mapped":3}`)
	if err := os.WriteFile(path, vstore.EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}

	col, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	want := PlannerCoefficients{Queries: 1, BondFrac: 0.46, ComprFilterFrac: 0.6, ComprSurvive: 0.05, VASurvive: 0.044}
	if got := col.PlannerStats(); got != want {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
	res, p, err := col.QueryExplain(QuerySpec{Query: vectors[7], K: 3, Criterion: Eq})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 || p.Model != want {
		t.Fatalf("planned from %+v with %d results, want %+v and 3", p.Model, len(res.Results), want)
	}
}

// TestPlannerDeterministic pins what taking the clock out of the planner
// buys: a plan is a function of the collection and the queries that came
// before, and of nothing else. Two durable collections built by the same
// operations — one reopened heap-decoded, one memory-mapped — are driven
// through one sequence of auto queries, fresh, after a recluster and after
// a checkpoint and reopen; after every query their EXPLAIN texts are
// byte-identical and their planner statistics ==. On a fresh model auto
// answers through BOND alone.
//
// QueryBatch feeds the model one batch mean per path, summed in
// worker-completion order, so the last bit of the statistics may differ
// after it: for the batch only the chosen paths are compared.
func TestPlannerDeterministic(t *testing.T) {
	const (
		n, dims, segSize = 1200, 16, 100
		seed             = 77
	)
	dirs := [2]string{}
	for i := range dirs {
		dirs[i], _, _ = buildMmapFixture(t, n, dims, segSize, seed)
	}
	opts := [2]DurableOptions{{DisableMmap: true, Fsync: FsyncNever}, {Fsync: FsyncNever}}
	var cols [2]*Collection
	open := func() {
		for i := range cols {
			c, err := OpenDurable(dirs[i], opts[i])
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = c
		}
		if cols[0].StatsSnapshot().MappedBytes != 0 {
			t.Fatal("DisableMmap collection reports mapped bytes")
		}
		if cols[1].StatsSnapshot().MappedBytes == 0 {
			t.Log("platform cannot memory-map segment files: both collections are heap-backed")
		}
	}
	closeAll := func() {
		for _, c := range cols {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	open()
	defer closeAll()

	rng := rand.New(rand.NewSource(seed))
	nextSpec := func(i int) QuerySpec {
		spec := QuerySpec{Query: randVector(rng, dims), K: 5, Criterion: Eq}
		if i%2 == 1 {
			spec.Criterion = Hq
		}
		return spec
	}
	// drive runs count auto queries on both collections, comparing after
	// each one.
	drive := func(phase string, count int, bondOnly bool) {
		t.Helper()
		for i := 0; i < count; i++ {
			spec := nextSpec(i)
			var plans [2]*QueryPlan
			for j, c := range cols {
				_, p, err := c.QueryExplain(spec)
				if err != nil {
					t.Fatalf("%s query %d: %v", phase, i, err)
				}
				plans[j] = p
			}
			if a, b := plans[0].Explain(), plans[1].Explain(); a != b {
				t.Fatalf("%s query %d: EXPLAIN differs between heap and mapped:\n%s\n%s", phase, i, a, b)
			}
			if a, b := cols[0].PlannerStats(), cols[1].PlannerStats(); a != b {
				t.Fatalf("%s query %d: planner stats differ: %+v vs %+v", phase, i, a, b)
			}
			if bondOnly {
				for _, st := range plans[0].Steps {
					if st.Executed && st.Path != plan.PathBOND {
						t.Fatalf("%s query %d: segment %d ran %v, want bond\n%s",
							phase, i, st.Segment, st.Path, plans[0].Explain())
					}
				}
			}
		}
	}

	drive("fresh", 64, true)

	for _, c := range cols {
		if _, err := c.ReclusterDurable(0, seed); err != nil {
			t.Fatal(err)
		}
	}
	drive("reclustered", 32, false)

	for _, c := range cols {
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	closeAll()
	open()
	if cols[0].PlannerStats().Queries != 96 {
		t.Fatalf("reopened model counts %d queries, want 96", cols[0].PlannerStats().Queries)
	}
	drive("reopened", 32, false)

	specs := make([]QuerySpec, 16)
	for i := range specs {
		specs[i] = nextSpec(i)
	}
	var batch [2][]QueryResult
	for j, c := range cols {
		var err error
		if batch[j], err = c.QueryBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	// Cells read are a fingerprint of the paths a batch query ran (each
	// path reads a different number of them); the plan that follows shows
	// the paths the batch's feedback leads to.
	for i := range specs {
		a, b := batch[0][i].Stats, batch[1][i].Stats
		if a.ValuesScanned != b.ValuesScanned || a.SegmentsSearched != b.SegmentsSearched || a.SegmentsSkipped != b.SegmentsSkipped {
			t.Fatalf("batch query %d: work differs between heap and mapped: %+v vs %+v", i, a, b)
		}
	}
	spec := nextSpec(0)
	var plans [2]*QueryPlan
	for j, c := range cols {
		var err error
		if _, plans[j], err = c.QueryExplain(spec); err != nil {
			t.Fatal(err)
		}
	}
	if len(plans[0].Steps) != len(plans[1].Steps) {
		t.Fatalf("post-batch plans have %d and %d steps", len(plans[0].Steps), len(plans[1].Steps))
	}
	for i := range plans[0].Steps {
		a, b := plans[0].Steps[i], plans[1].Steps[i]
		if a.Segment != b.Segment || a.Path != b.Path {
			t.Fatalf("post-batch step %d: heap runs segment %d by %v, mapped segment %d by %v",
				i, a.Segment, a.Path, b.Segment, b.Path)
		}
	}
}

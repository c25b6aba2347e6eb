package bond

import (
	"testing"

	"bond/internal/baseline/mil"
	"bond/internal/dataset"
	"bond/internal/plan"
	"bond/internal/topk"
)

// multiSegCollection returns the same data as one collection per layout:
// many small segments versus a single segment.
func multiSegCollection(t *testing.T, n, dims int) ([][]float64, *Collection, *Collection) {
	t.Helper()
	vs := dataset.CorelLike(n, dims, 321)
	segmented := NewCollectionSegmented(vs, 100)
	single := NewCollectionSegmented(vs, n+1)
	return vs, segmented, single
}

// TestSegmentedFacadeMatchesSingleSegment drives every public search path
// on a multi-segment collection and demands byte-identical neighbor sets
// to a single-segment (flat-equivalent) collection.
func TestSegmentedFacadeMatchesSingleSegment(t *testing.T) {
	vs, segd, single := multiSegCollection(t, 650, 24)
	// "single" holds all data in one sealed segment (plus the empty
	// active tail a bulk load leaves behind).
	if segd.NumSegments() < 6 || single.NumSegments() != 2 {
		t.Fatalf("layouts: %d and %d segments", segd.NumSegments(), single.NumSegments())
	}
	for _, c := range []*Collection{segd, single} {
		deleteIDs(t, c, 13, 444)
	}
	q := vs[77]
	for _, crit := range []Criterion{Hq, Hh, Eq, Ev} {
		spec := QuerySpec{Query: q, K: 8, Criterion: crit, Strategy: StrategyBOND}
		want, err := single.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := segd.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("%v rank %d: %+v, want %+v", crit, i, got.Results[i], want.Results[i])
			}
		}
	}
	for _, crit := range []Criterion{Hq, Eq} {
		spec := QuerySpec{Query: q, K: 8, Criterion: crit, Strategy: StrategyCompressed}
		want, err := single.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := segd.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("%v compressed rank %d: %+v, want %+v", crit, i, got.Results[i], want.Results[i])
			}
		}
	}
}

func TestFacadeCompactRatio(t *testing.T) {
	vs, segd, _ := multiSegCollection(t, 400, 8)
	// Heavy churn in the second segment only.
	for id := 100; id < 170; id++ {
		deleteIDs(t, segd, id)
	}
	deleteIDs(t, segd, 0) // one tombstone in the first segment
	mapping, err := segd.CompactRatioDurable(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if mapping[0] != 0 {
		t.Fatalf("cold segment id moved: mapping[0] = %d", mapping[0])
	}
	if !segd.store.IsDeleted(0) {
		t.Fatal("cold tombstone should survive CompactRatio(0.5)")
	}
	if mapping[150] != -1 || mapping[170] != 100 {
		t.Fatalf("hot segment mapping: [150]=%d [170]=%d", mapping[150], mapping[170])
	}
	if segd.Len() != 330 {
		t.Fatalf("len after ratio compact = %d, want 330", segd.Len())
	}
	// Results must still be exact after partial compaction.
	res, err := segd.Query(QuerySpec{Query: vs[200], K: 1, Criterion: Hq, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	if got := segd.Vector(res.Results[0].ID); len(got) != 8 {
		t.Fatal("vector fetch after compact failed")
	}
}

func TestFacadeSegmentSkippingReported(t *testing.T) {
	// Cluster-contiguous ingest: each 100-vector block around its own centre.
	blocks := 6
	var vs [][]float64
	base := dataset.CorelLike(blocks, 16, 5) // block centres
	for b := 0; b < blocks; b++ {
		for i := 0; i < 100; i++ {
			v := make([]float64, 16)
			copy(v, base[b])
			v[i%16] += 0.001 * float64(i%7)
			vs = append(vs, v)
		}
	}
	col := NewCollectionSegmented(vs, 100)
	res, err := col.Query(QuerySpec{Query: vs[10], K: 3, Criterion: Ev, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsSkipped == 0 {
		t.Errorf("expected segment skipping on cluster-contiguous data; searched %d, skipped %d",
			res.Stats.SegmentsSearched, res.Stats.SegmentsSkipped)
	}
}

func TestFacadeMultiSearchSegmented(t *testing.T) {
	v1 := dataset.CorelLike(300, 16, 1)
	v2 := dataset.CorelLike(300, 24, 2)
	c1 := NewCollectionSegmented(v1, 64)
	c2 := NewCollectionSegmented(v2, 80) // deliberately different boundaries
	features := []Feature{
		c1.AsFeature(v1[0], 0.5),
		c2.AsFeature(v2[0], 0.5),
	}
	res, err := MultiSearch(features, MultiOptions{K: 3, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID != 0 {
		t.Errorf("best = %d, want 0 (self query)", res.Results[0].ID)
	}
	// The snapshot taken by AsFeature must be immune to later writes.
	if _, err := c1.AddDurable(v1[1]); err != nil {
		t.Fatal(err)
	}
	deleteIDs(t, c1, 0)
	res2, err := MultiSearch(features, MultiOptions{K: 3, Agg: WeightedAvg})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Results[0].ID != 0 {
		t.Errorf("snapshot violated: best = %d, want 0", res2.Results[0].ID)
	}
}

// TestExclusionSurvivesAppends pins the concurrency-contract fix: an
// exclusion bitmap sized before appends must keep working (new ids simply
// are not excluded) instead of crashing bitmap bounds checks.
func TestExclusionSurvivesAppends(t *testing.T) {
	vs := dataset.CorelLike(150, 8, 77)
	col := NewCollectionSegmented(vs, 50)
	excl := col.NewExclusion()
	excl.Set(0)
	if _, err := col.AddDurable(vs[0]); err != nil { // collection now larger than the bitmap
		t.Fatal(err)
	}

	res, err := col.Query(QuerySpec{Query: vs[0], K: 2, Criterion: Hq, Exclude: excl, Strategy: StrategyBOND})
	if err != nil {
		t.Fatal(err)
	}
	// id 0 is excluded; the appended duplicate (id 150) is not.
	if res.Results[0].ID != 150 {
		t.Fatalf("best = %d, want the un-excluded duplicate 150", res.Results[0].ID)
	}
	if _, err := col.Query(QuerySpec{Query: vs[0], K: 2, Criterion: Hq, Exclude: excl, Strategy: StrategyCompressed}); err != nil {
		t.Fatalf("compressed with stale exclusion: %v", err)
	}
	if _, err := mil.SearchMIL(col.store.Flatten(), vs[0], mil.MILOptions{K: 2, Exclude: excl}); err != nil {
		t.Fatalf("MIL with stale exclusion: %v", err)
	}
}

// exactOracle is a straight scan of what the collection holds now, whatever
// ids a rewrite has handed out since.
func exactOracle(c *Collection, q []float64, k int) []topk.Result {
	var vs [][]float64
	deleted := map[int]bool{}
	for id := 0; id < c.Len(); id++ {
		vs = append(vs, c.Vector(id))
		deleted[id] = c.store.IsDeleted(id)
	}
	return oracleScan(vs, deleted, q, k, true)
}

// A write that leaves the segment list alone — an append into the active
// segment, a tombstone — keeps the memoized planner list (the same backing
// array, so no query under a writer rebuilds it); a write that replaces a
// segment drops it. Either way the next query sees the write: the new row,
// the tombstone, and the active segment's widened synopsis, which the list
// holds as a live view — a stale copy would skip the segment the far vector
// just landed in.
func TestPlanCacheSurvivesNonSealingWrites(t *testing.T) {
	const blocks, perBlock, dims = 4, 40, 8
	vs := clusterBlocks(blocks, perBlock, dims, 31)
	col := NewCollectionSegmented(vs, perBlock)
	far := make([]float64, dims)
	for d := range far {
		far[d] = 1 - vs[0][d] // the opposite corner from block 0's centre
	}
	cached := func() *plan.Segment {
		col.mu.RLock()
		defer col.mu.RUnlock()
		return &col.planView().segs[0]
	}
	check := func(label string) {
		t.Helper()
		for _, q := range [][]float64{vs[0], far} {
			res, err := col.Query(QuerySpec{Query: q, K: 3, Criterion: Eq, Strategy: StrategyBOND})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, label, res.Results, exactOracle(col, q, 3))
		}
	}
	kept := func(label string, before *plan.Segment) {
		t.Helper()
		if cached() != before {
			t.Errorf("%s rebuilt the memoized planner list", label)
		}
		check(label)
	}
	dropped := func(label string, before *plan.Segment) *plan.Segment {
		t.Helper()
		after := cached()
		if after == before {
			t.Errorf("%s kept a planner list it outdated", label)
		}
		check(label)
		return after
	}

	check("bulk load")
	add := func(v []float64) int {
		t.Helper()
		id, err := col.AddDurable(v)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	addBatch := func(vectors ...[]float64) {
		t.Helper()
		if _, err := col.AddBatchDurable(vectors); err != nil {
			t.Fatal(err)
		}
	}
	list := cached()
	add(vs[1])
	kept("add", list)
	// Fills the active segment, which seals, and spills vs[0] into the next:
	// the list is rebuilt over an active segment whose synopsis is one point
	// in block 0's corner…
	addBatch(append(vs[:perBlock-1:perBlock-1], vs[0])...)
	list = dropped("sealing add", list)
	farID := add(far) // …until this widens it across the box
	kept("widening add", list)
	if res, _ := col.Query(QuerySpec{Query: far, K: 1, Criterion: Eq, Strategy: StrategyBOND}); len(res.Results) != 1 || res.Results[0].ID != farID {
		t.Fatalf("query at the vector just added returned %v, want id %d", res.Results, farID)
	}
	deleteIDs(t, col, farID, 1)
	kept("delete", list)
	addBatch(vs[5], far)
	kept("batch add", list)

	if err := col.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	list = dropped("SealActiveDurable", list)
	if _, err := col.CompactRatioDurable(0); err != nil {
		t.Fatal(err)
	}
	list = dropped("CompactRatioDurable", list)
	if _, err := col.ReclusterDurable(0, 3); err != nil {
		t.Fatal(err)
	}
	dropped("ReclusterDurable", list)
}

package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"bond/internal/baseline/mil"
	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/dataset"
	"bond/internal/plan"
	"bond/internal/quant"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// These tests pin the per-segment primitives of package core, driven by
// the one executor that walks segments (package plan), against core.Search
// over the same collection stored flat. They live in an external test
// package because plan imports core.

// viewsOf exposes a segmented store to the search layer, synopses included.
func viewsOf(s *vstore.SegStore) []core.SegmentView {
	segs, bases := s.Segments(), s.Bases()
	views := make([]core.SegmentView, len(segs))
	for i := range segs {
		lo, hi := segs[i].DimRanges()
		views[i] = core.SegmentView{Src: segs[i], Base: bases[i], Lo: lo, Hi: hi}
	}
	return views
}

// segmentsOf is viewsOf plus the lazily built column codes of sealed
// segments, as the collection layer hands them to the planner.
func segmentsOf(s *vstore.SegStore) []plan.Segment {
	out := plan.WrapViews(viewsOf(s))
	for i, g := range s.Segments() {
		if g.Sealed() {
			out[i].Sealed = true
			out[i].Codes = func() *vstore.QuantStore { return g.Codes(quant.NewUnit()) }
		}
	}
	return out
}

// planned plans and executes spec over the segmented store, returning the
// plan as well: its Opts are the lowered, default-filled engine options the
// flat oracle runs with.
func planned(seg *vstore.SegStore, spec plan.Spec) (plan.Result, *plan.Plan, error) {
	p, err := plan.New(segmentsOf(seg), nil, spec, nil)
	if err != nil {
		return plan.Result{}, nil, err
	}
	res, err := plan.Execute(p)
	return res, p, err
}

// plannedAndFlat runs spec through the planner over seg and through
// core.Search over flat.
func plannedAndFlat(t *testing.T, label string, flat *vstore.Store, seg *vstore.SegStore, spec plan.Spec) (plan.Result, core.Result) {
	t.Helper()
	got, p, err := planned(seg, spec)
	if err != nil {
		t.Fatal(label, err)
	}
	want, err := core.Search(flat, spec.Query, p.Opts)
	if err != nil {
		t.Fatal(label, err)
	}
	return got, want
}

// identicalResults demands byte-identical neighbor sets: same ids, same
// float64 scores, same order. The segmented engine accumulates each
// candidate's score over the same dimension sequence as the flat engine,
// so not even last-ulp drift is tolerated.
func identicalResults(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d = {%d %v}, want {%d %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// segFixture builds the same collection twice: flat and segmented (with a
// few deletes sprinkled in so delete handling is part of every oracle).
func segFixture(n, dims, segSize int, seed int64) (*vstore.Store, *vstore.SegStore) {
	vs := dataset.CorelLike(n, dims, seed)
	flat := vstore.FromVectors(vs)
	seg := vstore.SegmentedFromVectors(vs, segSize)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/20; i++ {
		id := rng.Intn(n)
		flat.Delete(id)
		seg.Delete(id)
	}
	return flat, seg
}

func TestPlannedSegmentsMatchFlatAllCriteria(t *testing.T) {
	flat, seg := segFixture(700, 32, 150, 11)
	queries := dataset.CorelLike(6, 32, 77)
	for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
		for qi, q := range queries {
			got, want := plannedAndFlat(t, crit.String(), flat, seg,
				plan.Spec{Query: q, K: 9, Criterion: crit, Strategy: plan.ForceBOND})
			identicalResults(t, crit.String(), got.Results, want.Results)
			if got.Stats.SegmentsSearched+got.Stats.SegmentsSkipped == 0 {
				t.Fatalf("%s q%d: no segment accounting", crit, qi)
			}
		}
	}
}

func TestPlannedSegmentsWeightedSubspaceExclude(t *testing.T) {
	flat, seg := segFixture(500, 24, 128, 5)
	q := dataset.CorelLike(1, 24, 123)[0]
	w := dataset.WeightsZipf(24, 1.5, 9)
	excl := bitmap.New(flat.Len())
	for id := 0; id < flat.Len(); id += 7 {
		excl.Set(id)
	}
	cases := []struct {
		label string
		spec  plan.Spec
	}{
		{"weighted-Ev", plan.Spec{Criterion: core.Ev, Weights: w}},
		{"weighted-Hq", plan.Spec{Criterion: core.Hq, Weights: w}},
		{"subspace-Ev", plan.Spec{Criterion: core.Ev, Dims: []int{1, 4, 9, 16}}},
		{"subspace-Hq", plan.Spec{Criterion: core.Hq, Dims: []int{0, 2, 3, 11, 20}}},
		{"excluded-Hq", plan.Spec{Criterion: core.Hq, Exclude: excl}},
		{"excluded-Ev", plan.Spec{Criterion: core.Ev, Exclude: excl}},
		{"step1", plan.Spec{Criterion: core.Ev, Step: 1}},
	}
	for _, c := range cases {
		c.spec.Query, c.spec.K, c.spec.Strategy = q, 7, plan.ForceBOND
		got, want := plannedAndFlat(t, c.label, flat, seg, c.spec)
		identicalResults(t, c.label, got.Results, want.Results)
	}
}

func TestPlannedSegmentsSmallerThanK(t *testing.T) {
	vs := dataset.CorelLike(5, 8, 1)
	got, want := plannedAndFlat(t, "tiny", vstore.FromVectors(vs), vstore.SegmentedFromVectors(vs, 2),
		plan.Spec{Query: vs[0], K: 3, Strategy: plan.ForceBOND})
	identicalResults(t, "tiny", got.Results, want.Results)
}

func TestPlannedSegmentsRespectExclude(t *testing.T) {
	vs := dataset.CorelLike(100, 16, 2)
	excl := bitmap.New(100)
	excl.Set(0)
	res, _, err := planned(vstore.SegmentedFromVectors(vs, 30),
		plan.Spec{Query: vs[0], K: 1, Exclude: excl, Strategy: plan.ForceBOND})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].ID == 0 {
		t.Error("excluded id returned")
	}
}

func TestPlannedSegmentsAllExcluded(t *testing.T) {
	vs := dataset.CorelLike(10, 8, 3)
	_, _, err := planned(vstore.SegmentedFromVectors(vs, 4),
		plan.Spec{Query: vs[0], K: 1, Exclude: bitmap.NewFull(10), Strategy: plan.ForceBOND})
	if !errors.Is(err, core.ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestPlannedSegmentsBadOptions(t *testing.T) {
	vs := dataset.CorelLike(10, 8, 3)
	_, _, err := planned(vstore.SegmentedFromVectors(vs, 4),
		plan.Spec{Query: vs[0], K: 0, Strategy: plan.ForceBOND})
	if !errors.Is(err, core.ErrBadK) {
		t.Errorf("err = %v, want ErrBadK", err)
	}
}

func TestPlannedSegmentsExcludeMatchesFlat(t *testing.T) {
	flat, seg := segFixture(530, 16, 100, 31)
	q := dataset.CorelLike(1, 16, 8)[0]
	excl := bitmap.New(flat.Len())
	excl.Set(2)
	excl.Set(333)
	for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
		got, want := plannedAndFlat(t, crit.String(), flat, seg,
			plan.Spec{Query: q, K: 8, Criterion: crit, Exclude: excl, Strategy: plan.ForceBOND})
		identicalResults(t, "exclude-"+crit.String(), got.Results, want.Results)
	}
}

func TestCompressedSegmentsMatchesFlat(t *testing.T) {
	flat, seg := segFixture(560, 24, 128, 51)
	q := dataset.CorelLike(1, 24, 4)[0]
	qs := flat.Quantize(quant.NewUnit())
	for _, crit := range []core.Criterion{core.Hq, core.Eq} {
		got, p, err := planned(seg, plan.Spec{Query: q, K: 10, Criterion: crit, Strategy: plan.ForceCompressed})
		if err != nil {
			t.Fatal(err)
		}
		want, empty := core.SearchCompressedOneScratch(flat, qs, q, p.Opts, nil)
		if empty {
			t.Fatal("flat compressed search found no candidates")
		}
		identicalResults(t, "compressed-"+crit.String(), got.Results, want.Results)
	}
}

// The MIL reference engine is not an access path of the planner, so the
// segment walk is spelled out here: it must answer a segment source (with
// its own delete marks) exactly as it answers the flat store.
func TestMILSegmentsMatchesFlat(t *testing.T) {
	flat, seg := segFixture(450, 16, 120, 61)
	q := dataset.CorelLike(1, 16, 14)[0]
	want, err := mil.SearchMIL(flat, q, mil.MILOptions{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]topk.Result
	for _, v := range viewsOf(seg) {
		if v.Src.Len() == 0 {
			continue
		}
		res, err := mil.SearchMIL(v.Src, q, mil.MILOptions{K: 7})
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, core.RebaseInPlace(res.Results, v.Base))
	}
	identicalResults(t, "mil", topk.Merge(7, true, lists...), want.Results)
}

// clusterContiguous builds data where each segment-sized block of vectors
// sits around its own cluster centre — the locality pattern (ingest by
// time or by class) that makes segment synopses selective.
func clusterContiguous(blocks, perBlock, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, 0, blocks*perBlock)
	for b := 0; b < blocks; b++ {
		ctr := make([]float64, dims)
		for d := range ctr {
			ctr[d] = rng.Float64()
		}
		for i := 0; i < perBlock; i++ {
			v := make([]float64, dims)
			for d := range v {
				x := ctr[d] + rng.NormFloat64()*0.01
				if x < 0 {
					x = 0
				}
				if x > 1 {
					x = 1
				}
				v[d] = x
			}
			out = append(out, v)
		}
	}
	return out
}

func TestPlannedSegmentsSkipColdSegments(t *testing.T) {
	const blocks, perBlock, dims = 8, 100, 16
	vs := clusterContiguous(blocks, perBlock, dims, 17)
	flat := vstore.FromVectors(vs)
	seg := vstore.SegmentedFromVectors(vs, perBlock)
	q := vs[3] // deep inside block 0
	for _, crit := range []core.Criterion{core.Ev, core.Eq, core.Hq} {
		got, want := plannedAndFlat(t, crit.String(), flat, seg,
			plan.Spec{Query: q, K: 5, Criterion: crit, Strategy: plan.ForceBOND})
		identicalResults(t, "skip-"+crit.String(), got.Results, want.Results)
		if got.Stats.SegmentsSkipped == 0 {
			t.Errorf("%s: no segments skipped on cluster-contiguous data", crit)
		}
		if got.Stats.SegmentsSearched+got.Stats.SegmentsSkipped < blocks {
			t.Errorf("%s: accounting: searched %d + skipped %d < %d segments",
				crit, got.Stats.SegmentsSearched, got.Stats.SegmentsSkipped, blocks)
		}
		if got.Stats.ValuesScanned >= want.Stats.ValuesScanned {
			t.Errorf("%s: segmented scanned %d values, flat scanned %d — skipping saved nothing",
				crit, got.Stats.ValuesScanned, want.Stats.ValuesScanned)
		}
	}
}

func TestPlannedSegmentsEmptyAndErrorCases(t *testing.T) {
	seg := vstore.NewSegmented(4, 8)
	spec := plan.Spec{Query: []float64{1, 0, 0, 0}, K: 3, Strategy: plan.ForceBOND}
	if _, _, err := planned(seg, spec); err != core.ErrNoCandidates {
		t.Fatalf("empty store: err = %v, want ErrNoCandidates", err)
	}
	if _, err := plan.New(nil, nil, spec, nil); err == nil {
		t.Fatal("no segments not rejected")
	}
	seg.Append([]float64{0.1, 0.2, 0.3, 0.4})
	short := spec
	short.Query = []float64{1, 0, 0}
	if _, _, err := planned(seg, short); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	gapped := segmentsOf(seg)
	gapped[0].View.Base = 5
	if _, err := plan.New(gapped, nil, spec, nil); err == nil {
		t.Fatal("non-dense segment bases not rejected")
	}
	spec.K = 5
	res, _, err := planned(seg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("k beyond size: %d results, want 1", len(res.Results))
	}
}

package plan

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/quant"
	"bond/internal/vafile"
	"bond/internal/vstore"
)

// segmentsOf lifts a segmented store into planner segments the same way
// the collection layer does.
func segmentsOf(s *vstore.SegStore) []Segment {
	segs, bases := s.Segments(), s.Bases()
	out := make([]Segment, len(segs))
	for i, g := range segs {
		lo, hi := g.DimRanges()
		out[i] = Segment{
			View:   core.SegmentView{Src: g, Base: bases[i], Lo: lo, Hi: hi},
			Sealed: g.Sealed(),
		}
		if g.Sealed() {
			g := g
			out[i].Codes = func() *vstore.QuantStore { return g.Codes(quant.NewUnit()) }
			out[i].VA = func() *vafile.File {
				qz, codes := g.RowCodes(quant.NewUnit())
				return vafile.FromRowCodes(qz, g.Len(), g.Dims(), codes)
			}
		}
	}
	return out
}

// clusterContiguous builds nSeg segments of segLen vectors each, every
// segment a tight cluster around its own center — the layout where
// synopsis skipping shines.
func clusterContiguous(nSeg, segLen, dims int, seed int64) *vstore.SegStore {
	rng := rand.New(rand.NewSource(seed))
	var vectors [][]float64
	for s := 0; s < nSeg; s++ {
		center := make([]float64, dims)
		for d := range center {
			center[d] = rng.Float64()
		}
		for i := 0; i < segLen; i++ {
			v := make([]float64, dims)
			for d := range v {
				x := center[d] + 0.02*(rng.Float64()-0.5)
				if x < 0 {
					x = 0
				}
				if x > 1 {
					x = 1
				}
				v[d] = x
			}
			vectors = append(vectors, v)
		}
	}
	return vstore.SegmentedFromVectors(vectors, segLen)
}

func uniformStore(n, segLen, dims int, seed int64) *vstore.SegStore {
	rng := rand.New(rand.NewSource(seed))
	vectors := make([][]float64, n)
	for i := range vectors {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64()
		}
		vectors[i] = v
	}
	return vstore.SegmentedFromVectors(vectors, segLen)
}

// skewedStore concentrates mass on the low dimensions (Zipf-like), the
// data shape BOND prunes best on.
func skewedStore(n, segLen, dims int, seed int64) *vstore.SegStore {
	rng := rand.New(rand.NewSource(seed))
	vectors := make([][]float64, n)
	for i := range vectors {
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64() / float64(1+d)
		}
		vectors[i] = v
	}
	return vstore.SegmentedFromVectors(vectors, segLen)
}

func TestForcedStrategyPaths(t *testing.T) {
	s := uniformStore(300, 100, 8, 1)
	s.Append(make([]float64, 8)) // unsealed active segment
	segs := segmentsOf(s)
	q := s.Row(5)

	cases := []struct {
		strat  Strategy
		sealed Path
		active Path
	}{
		{ForceBOND, PathBOND, PathBOND},
		{ForceCompressed, PathCompressed, PathExact},
		{ForceVAFile, PathVAFile, PathExact},
		{ForceExact, PathExact, PathExact},
	}
	for _, tc := range cases {
		p, err := New(segs, nil, Spec{Query: q, K: 3, Strategy: tc.strat}, nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.strat, err)
		}
		if _, err := Execute(p); err != nil {
			t.Fatalf("%v: %v", tc.strat, err)
		}
		if len(p.Steps) != len(segs) {
			t.Fatalf("%v: %d steps for %d segments", tc.strat, len(p.Steps), len(segs))
		}
		for _, st := range p.Steps {
			want := tc.sealed
			if !st.Sealed {
				want = tc.active
			}
			if st.Path != want {
				t.Errorf("%v: segment %d (sealed=%v) got path %v, want %v",
					tc.strat, st.Segment, st.Sealed, st.Path, want)
			}
		}
	}
}

func TestCompressedStrategyRejectsUnsupportedOptions(t *testing.T) {
	s := uniformStore(200, 100, 8, 2)
	q := s.Row(0)
	w := make([]float64, 8)
	for d := range w {
		w[d] = 1
	}
	if _, err := New(segmentsOf(s), nil, Spec{Query: q, K: 3, Strategy: ForceCompressed, Weights: w}, nil); err == nil {
		t.Fatal("weighted compressed plan should be rejected")
	}
	if _, err := New(segmentsOf(s), nil, Spec{Query: q, K: 3, Strategy: ForceVAFile, Criterion: core.Hh}, nil); err == nil {
		t.Fatal("Hh VA-File plan should be rejected")
	}
}

// TestAutoShapeFactorDifferentiates checks the planner's per-segment
// choice: under a distance criterion, a segment whose bounding box is far
// from the query predicts cheap BOND (branch-and-bound kills candidates
// immediately), while the segment containing the query has no such help
// and predicts the full bondFrac.
func TestAutoShapeFactorDifferentiates(t *testing.T) {
	s := clusterContiguous(4, 150, 32, 3)
	segs := segmentsOf(s)
	q := s.Row(0) // inside segment 0's cluster
	p, err := New(segs, nil, Spec{Query: q, K: 3, Criterion: core.Eq}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(p); err != nil {
		t.Fatal(err)
	}
	var home, away *Step
	for i := range p.Steps {
		if p.Steps[i].Segment == 0 {
			home = &p.Steps[i]
		} else if away == nil {
			away = &p.Steps[i]
		}
	}
	if home == nil || away == nil {
		t.Fatal("missing steps")
	}
	if away.Path != PathBOND {
		t.Errorf("far segment should prefer BOND, got %v (pred %.1f)", away.Path, away.PredCost)
	}
	if away.PredCost >= home.PredCost {
		t.Errorf("far segment predicted %.1f, home %.1f: want far < home", away.PredCost, home.PredCost)
	}
}

func TestExecuteMatchesExactScan(t *testing.T) {
	s := clusterContiguous(5, 120, 10, 4)
	segs := segmentsOf(s)
	q := s.Row(37)
	for _, strat := range []Strategy{Auto, ForceBOND, ForceCompressed, ForceVAFile, ForceExact} {
		for _, crit := range []core.Criterion{core.Hq, core.Eq} {
			oracle, err := New(segs, nil, Spec{Query: q, K: 7, Criterion: crit, Strategy: ForceExact}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Execute(oracle)
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(segs, nil, Spec{Query: q, K: 7, Criterion: crit, Strategy: strat}, new(Pool))
			if err != nil {
				t.Fatalf("%v/%v: %v", strat, crit, err)
			}
			got, err := Execute(p)
			if err != nil {
				t.Fatalf("%v/%v: %v", strat, crit, err)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("%v/%v: %d results, want %d", strat, crit, len(got.Results), len(want.Results))
			}
			for i := range want.Results {
				if got.Results[i].ID != want.Results[i].ID {
					t.Fatalf("%v/%v rank %d: id %d, want %d", strat, crit, i,
						got.Results[i].ID, want.Results[i].ID)
				}
				if diff := got.Results[i].Score - want.Results[i].Score; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%v/%v rank %d: score %v, want %v", strat, crit, i,
						got.Results[i].Score, want.Results[i].Score)
				}
			}
		}
	}
}

func TestDeadlineTruncates(t *testing.T) {
	s := uniformStore(400, 100, 8, 6)
	segs := segmentsOf(s)
	p, err := New(segs, nil, Spec{
		Query:    s.Row(0),
		K:        3,
		Deadline: time.Now().Add(-time.Second),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expired deadline should truncate")
	}
	if len(res.Results) != 0 {
		t.Fatalf("no segment ran, yet %d results", len(res.Results))
	}
}

func TestToleranceSkipsMarginalSegments(t *testing.T) {
	// Uniform data: every segment's synopsis bound clears κ, so exact
	// skipping dismisses nothing — only the tolerance can.
	s := uniformStore(600, 100, 8, 7)
	segs := segmentsOf(s)
	q := s.Row(0)
	exact, err := New(segs, nil, Spec{Query: q, K: 3, Strategy: ForceBOND}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(exact); err != nil {
		t.Fatal(err)
	}
	loose, err := New(segs, nil, Spec{Query: q, K: 3, Strategy: ForceBOND, Tolerance: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(loose)
	if err != nil {
		t.Fatal(err)
	}
	skippedExact := countSkipped(exact)
	skippedLoose := countSkipped(loose)
	if skippedLoose <= skippedExact {
		t.Fatalf("tolerance 100 skipped %d segments, exact skipped %d: want more", skippedLoose, skippedExact)
	}
	if len(res.Results) == 0 {
		t.Fatal("approximate search returned nothing")
	}
}

func countSkipped(p *Plan) int {
	n := 0
	for i := range p.Steps {
		if p.Steps[i].Skipped {
			n++
		}
	}
	return n
}

// A released plan goes back to the pool with its buffers and nothing of the
// caller's: up to groupSize × poolCap() of them are parked, and none may pin
// a query vector, a weight vector or an exclusion bitmap.
func TestReleasedPlanForgetsCallerData(t *testing.T) {
	s := uniformStore(300, 100, 8, 6)
	pool := new(Pool)
	ex := bitmap.New(s.Len())
	ex.Set(3)
	for _, spec := range []Spec{
		{Criterion: core.Ev, Weights: []float64{1, 2, 0, 1, 1, 3, 1, 1}, Strategy: ForceBOND},
		{Criterion: core.Eq, Dims: []int{1, 4, 6}, Strategy: ForceExact},
		{Criterion: core.Hq, Strategy: ForceVAFile},
	} {
		spec.Query, spec.K, spec.Exclude = s.Row(7), 4, ex
		p, err := NewReusable(segmentsOf(s), nil, spec, pool)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Execute(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
		if p.Spec.Query != nil || p.Spec.Exclude != nil || p.Opts.Exclude != nil || p.Opts.Weights != nil {
			t.Fatalf("%v: released plan keeps its spec", spec.Strategy)
		}
		for _, qs := range []*core.Query{&p.cur.bond, &p.cur.exact} {
			q := reflect.ValueOf(qs).Elem()
			for _, f := range []string{"q", "opts", "weights"} {
				if !q.FieldByName(f).IsZero() {
					t.Errorf("%v: released plan's engine state keeps %s", spec.Strategy, f)
				}
			}
		}
	}
}

// TestSealedShapeKeptPerList holds the validation shortcut to full
// aggregation: the first plan over a segment list keeps the shape of its
// leading sealed run on the list, later plans reuse it, and the active
// segment is still folded in per plan — a value appended there out of the
// Euclidean range is refused at once.
func TestSealedShapeKeptPerList(t *testing.T) {
	store := uniformStore(400, 100, 8, 5)
	store.Append(store.Row(7)) // opens an active segment after four sealed ones
	segs := segmentsOf(store)
	spec := Spec{Query: store.Row(0), K: 3, Criterion: core.Eq}
	if _, err := New(segs, nil, spec, nil); err != nil {
		t.Fatal(err)
	}
	kept := segs[0].sealedRun.Load()
	if kept == nil {
		t.Fatal("the first plan kept no sealed shape")
	}
	want, err := core.Shape{}.Fold(4, func(i int) *core.SegmentView { return &segs[i].View })
	if err != nil || *kept != want {
		t.Fatalf("kept shape %+v, want the four sealed segments' %+v (%v)", *kept, want, err)
	}

	far := make([]float64, 8)
	far[0] = 2
	store.Append(far)
	if _, err := New(segs, nil, spec, nil); !errors.Is(err, core.ErrDataRange) {
		t.Fatalf("Eq after an out-of-range append: err %v, want ErrDataRange", err)
	}
	spec.Criterion = core.Hq
	if _, err := New(segs, nil, spec, nil); err != nil {
		t.Fatalf("Hq after the append: %v", err)
	}
	if segs[0].sealedRun.Load() != kept {
		t.Fatal("a later plan aggregated the sealed run again")
	}
}

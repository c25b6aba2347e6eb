package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/plan"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// carryFixture is a randomly segmented collection built to stress the
// carried κ: normalized vectors (so every criterion applies), a tenth of them exact copies of other vectors — copies land in
// other segments, so equal scores straddle segment boundaries — segments of
// random sizes, random delete marks, and a random exclusion bitmap.
type carryFixture struct {
	flat *vstore.Store
	seg  *vstore.SegStore
	vs   [][]float64
	excl *bitmap.Bitmap
}

func newCarryFixture(rng *rand.Rand) carryFixture {
	n, dims := 80+rng.Intn(300), 6+rng.Intn(20)
	vs := make([][]float64, n)
	for i := range vs {
		if i > 0 && rng.Intn(10) == 0 {
			vs[i] = append([]float64(nil), vs[rng.Intn(i)]...)
			continue
		}
		v, sum := make([]float64, dims), 0.0
		for d := range v {
			v[d] = rng.ExpFloat64()
			sum += v[d]
		}
		for d := range v {
			v[d] /= sum
		}
		vs[i] = v
	}
	f := carryFixture{flat: vstore.FromVectors(vs), seg: vstore.NewSegmented(dims, 10+rng.Intn(n/2)), vs: vs}
	for _, v := range vs {
		f.seg.Append(v)
		if rng.Intn(25) == 0 {
			f.seg.SealActive()
		}
	}
	for i := 0; i < n/15; i++ {
		id := rng.Intn(n)
		f.flat.Delete(id)
		f.seg.Delete(id)
	}
	f.excl = bitmap.New(n)
	for i := 0; i < n/12; i++ {
		f.excl.Set(rng.Intn(n))
	}
	return f
}

// carrySpecs returns the query shapes of one trial: every criterion, plain,
// weighted (with zero weights) and subspace, each at
// several K — small ones, so that the copies of a query vector tie at rank
// k, and one larger than any segment. Half the queries are stored vectors.
func (f carryFixture) carrySpecs(rng *rand.Rand) []plan.Spec {
	dims := f.flat.Dims()
	q := f.vs[rng.Intn(len(f.vs))]
	if rng.Intn(2) == 0 {
		q = append([]float64(nil), q...)
		q[rng.Intn(dims)] *= 0.5
	}
	w := make([]float64, dims)
	for d := range w {
		w[d] = float64(rng.Intn(4)) // zeros included
	}
	w[rng.Intn(dims)] = 2
	sub := rng.Perm(dims)[:1+rng.Intn(dims-1)]
	var specs []plan.Spec
	for _, k := range []int{1, 2, 3, 7, f.seg.SegmentSize() + 3} {
		for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
			base := plan.Spec{Query: q, K: k, Criterion: crit, Strategy: plan.ForceBOND, Exclude: f.excl,
				Step: 1 + rng.Intn(8)}
			specs = append(specs, base)
			s := base
			s.Dims = sub
			specs = append(specs, s)
			if crit != core.Hh {
				s = base
				s.Weights = w
				specs = append(specs, s)
			}
		}
	}
	return specs
}

func specLabel(seed int, s plan.Spec) string {
	return fmt.Sprintf("seed=%d %v k=%d step=%d weights=%v dims=%v tol=%v",
		seed, s.Criterion, s.K, s.Step, len(s.Weights) > 0, s.Dims, s.Tolerance)
}

// sameBits is identicalResults down to the sign of zero.
func sameBits(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	identicalResults(t, label, got, want)
	for i := range want {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d score bits differ: %v vs %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestCarriedKappaExactProperty is the exactness contract of the carried κ:
// over random segmentations of data full of cross-segment duplicates, a
// forced-BOND plan returns the ids and score bits of flat core.Search, with
// the carry and without it, and the carry never reads more cells.
func TestCarriedKappaExactProperty(t *testing.T) {
	defer core.SetCarryDisabled(false)
	var withCarry, without int64
	// 154 and 168 are seeds at which a relaxed rule returns a wrong id: no
	// slack on T(q⁺) drops a tying Hq candidate at 154, EvLower against the
	// carried κ a tying Ev candidate at 168.
	seeds := []int{154, 168}
	for seed := 1; seed <= 40; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := newCarryFixture(rng)
		for _, spec := range f.carrySpecs(rng) {
			label := specLabel(seed, spec)
			core.SetCarryDisabled(false)
			got, want := plannedAndFlat(t, label, f.flat, f.seg, spec)
			sameBits(t, label, got.Results, want.Results)
			core.SetCarryDisabled(true)
			off, _, err := planned(f.seg, spec)
			if err != nil {
				t.Fatal(label, err)
			}
			sameBits(t, label+" (carry off)", off.Results, want.Results)
			if got.Stats.ValuesScanned > off.Stats.ValuesScanned {
				t.Fatalf("%s: carried κ scanned %d cells, %d without it",
					label, got.Stats.ValuesScanned, off.Stats.ValuesScanned)
			}
			if got.Stats.SegmentsSearched != off.Stats.SegmentsSearched {
				t.Fatalf("%s: searched %d segments with the carry, %d without",
					label, got.Stats.SegmentsSearched, off.Stats.SegmentsSearched)
			}
			withCarry += got.Stats.ValuesScanned
			without += off.Stats.ValuesScanned
		}
	}
	if withCarry >= without {
		t.Fatalf("the carried κ saved nothing: %d cells with, %d without", withCarry, without)
	}
	t.Logf("cells scanned: %d with the carried κ, %d without", withCarry, without)
}

// TestCarriedKappaTolerance: with Tolerance > 0 candidates that cannot
// improve κ by more than the tolerance are dropped inside segments too, so
// the answer may differ from the oracle's — but every reported score is
// that vector's exact score, and the k-th is within Tolerance of the
// oracle's k-th.
func TestCarriedKappaTolerance(t *testing.T) {
	for seed := 1; seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		f := newCarryFixture(rng)
		for _, spec := range f.carrySpecs(rng) {
			spec.Tolerance = 0.02 * rng.Float64()
			label := specLabel(seed, spec)
			got, want := plannedAndFlat(t, label, f.flat, f.seg, spec)
			if len(got.Results) != len(want.Results) {
				t.Fatalf("%s: %d results, oracle %d", label, len(got.Results), len(want.Results))
			}
			// The flat engine asked for every live vector is the score oracle:
			// same dimension order, same float sums.
			opts := spec
			opts.K = f.flat.Len()
			_, all := plannedAndFlat(t, label, f.flat, f.seg, opts)
			exact := make(map[int]float64, len(all.Results))
			for _, r := range all.Results {
				exact[r.ID] = r.Score
			}
			for i, r := range got.Results {
				if s, ok := exact[r.ID]; !ok || math.Float64bits(s) != math.Float64bits(r.Score) {
					t.Fatalf("%s: rank %d reports {%d %v}, exact score %v (live %v)", label, i, r.ID, r.Score, s, ok)
				}
			}
			last := len(want.Results) - 1
			if d := math.Abs(got.Results[last].Score - want.Results[last].Score); d > spec.Tolerance {
				t.Fatalf("%s: k-th score %v, oracle %v: off by %v", label,
					got.Results[last].Score, want.Results[last].Score, d)
			}
		}
	}
}

// TestCarriedKappaEmptiesFarSegments: without synopses no segment can be
// skipped, but once the query's own cluster has set κ the other clusters'
// segments are pruned to nothing after a few columns. They contribute no
// result, read a fraction of their cells, and still count as searched.
func TestCarriedKappaEmptiesFarSegments(t *testing.T) {
	const blocks, perBlock, dims = 6, 80, 16
	vs := clusterContiguous(blocks, perBlock, dims, 23)
	flat := vstore.FromVectors(vs)
	views := viewsOf(vstore.SegmentedFromVectors(vs, perBlock))
	for i := range views {
		views[i].Lo, views[i].Hi = nil, nil
	}
	for _, crit := range []core.Criterion{core.Hq, core.Hh, core.Eq, core.Ev} {
		p, err := plan.New(plan.WrapViews(views), nil, plan.Spec{Query: vs[5], K: 4, Criterion: crit, Strategy: plan.ForceBOND}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Search(flat, vs[5], p.Opts)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, crit.String(), got.Results, want.Results)
		if got.Stats.SegmentsSearched != blocks || got.Stats.SegmentsSkipped != 0 {
			t.Fatalf("%v: searched %d, skipped %d; want %d, 0", crit,
				got.Stats.SegmentsSearched, got.Stats.SegmentsSkipped, blocks)
		}
		emptied := 0
		for _, st := range p.Steps {
			if !st.Executed {
				t.Fatalf("%v: segment %d not executed", crit, st.Segment)
			}
			if st.Candidates > 0 {
				continue
			}
			emptied++
			if !st.HasKappa {
				t.Fatalf("%v: segment %d emptied without a carried κ", crit, st.Segment)
			}
			if st.ActualCost >= float64(st.N*dims) {
				t.Fatalf("%v: emptied segment %d still read %v cells", crit, st.Segment, st.ActualCost)
			}
			for _, r := range got.Results {
				if r.ID >= st.Base && r.ID < st.Base+st.N {
					t.Fatalf("%v: emptied segment %d contributed id %d", crit, st.Segment, r.ID)
				}
			}
		}
		if emptied == 0 {
			t.Fatalf("%v: no far segment was pruned to zero candidates", crit)
		}
	}
}

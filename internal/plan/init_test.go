package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bond/internal/core"
)

// oldStepLess is the comparator the planner stable-sorted whole Steps with
// before it sorted keys; kept as the reference for the order.
func oldStepLess(sa, sb *Step, dist bool) bool {
	if sa.Parallel != sb.Parallel {
		return sa.Parallel
	}
	if sa.Parallel {
		return sa.Segment < sb.Segment
	}
	if sa.HasBound != sb.HasBound {
		return !sa.HasBound
	}
	if !sa.HasBound {
		return false
	}
	if sa.Bound != sb.Bound {
		if dist {
			return sa.Bound < sb.Bound
		}
		return sa.Bound > sb.Bound
	}
	return false
}

// The step order is the one a stable sort under the old comparator gives to
// the steps laid out in segment order — on synopses built to collide: few
// distinct boxes, so most bounds tie exactly; some segments without a
// synopsis; some empty; a parallel group (large segments under Auto, every
// segment under ForceBOND); both directions.
func TestStepOrderMatchesStableSort(t *testing.T) {
	const dims = 6
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		nSeg := 2 + rng.Intn(40)
		boxes := 1 + rng.Intn(4)
		segs := make([]Segment, nSeg)
		base := 0
		for i := range segs {
			n := []int{0, 1, 3, parallelMinSegment}[rng.Intn(4)]
			v := core.SegmentView{Src: sizedSource{n: n, dims: dims}, Base: base}
			if rng.Intn(4) > 0 {
				c := float64(rng.Intn(boxes)) / 4
				v.Lo, v.Hi = slices.Repeat([]float64{c}, dims), slices.Repeat([]float64{c + 0.125}, dims)
			}
			segs[i] = Segment{View: v, Sealed: true}
			base += n
		}
		q := slices.Repeat([]float64{0.3}, dims)
		for _, spec := range []Spec{
			{Criterion: core.Eq, Strategy: ForceBOND},
			{Criterion: core.Hq, Strategy: ForceBOND},
			{Criterion: core.Ev, Strategy: ForceBOND, Parallel: 2},
			{Criterion: core.Hh, Strategy: Auto, Parallel: 4},
			{Criterion: core.Eq, Strategy: ForceExact, Parallel: 4},
		} {
			spec.Query, spec.K, spec.SkipRangeCheck = q, 3, true
			p, err := New(segs, spec, nil)
			if err != nil {
				if base == 0 {
					continue // every segment drew empty
				}
				t.Fatal(err)
			}
			want := slices.Clone(p.Steps)
			slices.SortFunc(want, func(a, b Step) int { return a.Segment - b.Segment })
			dist := spec.Criterion.Distance()
			slices.SortStableFunc(want, func(a, b Step) int {
				switch {
				case oldStepLess(&a, &b, dist):
					return -1
				case oldStepLess(&b, &a, dist):
					return 1
				}
				return 0
			})
			if !slices.Equal(p.Steps, want) {
				t.Fatalf("trial %d %v/%v parallel=%d: step order differs from the stable sort\n got %v\nwant %v",
					trial, spec.Criterion, spec.Strategy, spec.Parallel, stepSegments(p.Steps), stepSegments(want))
			}
		}
	}
}

func stepSegments(steps []Step) []int {
	out := make([]int, len(steps))
	for i, st := range steps {
		out[i] = st.Segment
	}
	return out
}

// sizedSource is a segment the planner can plan but not execute: a slot
// count and a dimensionality, no columns.
type sizedSource struct {
	core.Source
	n, dims int
}

func (s sizedSource) Len() int                       { return s.n }
func (s sizedSource) Dims() int                      { return s.dims }
func (s sizedSource) ValueRange() (float64, float64) { return 0, 1 }

// BenchmarkPlanInit times planning alone — Plan.init on a pooled plan — over
// cluster-contiguous synopses, the layout where the bound pass and the step
// order are all a query pays for most segments. Queries rotate over the
// clusters, so the sort's branches are as unpredictable as a served mix
// makes them. ns/cell is per synopsis cell (segments × dims); allocs/op
// must read 0.
func BenchmarkPlanInit(b *testing.B) {
	const dims, nQueries = 64, 64
	weights := make([]float64, dims)
	for d := range weights {
		weights[d] = float64(d % 4) // a quarter of them zero
	}
	for _, nSeg := range []int{96, 1536} {
		s := clusterContiguous(nSeg, 2, dims, 5)
		segs := segmentsOf(s)
		queries := make([][]float64, nQueries)
		for i := range queries {
			queries[i] = s.Row(2 * (i * nSeg / nQueries))
		}
		for _, spec := range []Spec{
			{Criterion: core.Eq, Strategy: ForceBOND},
			{Criterion: core.Hq, Strategy: ForceBOND, Weights: weights},
		} {
			spec.K = 10
			name := fmt.Sprintf("segs=%d/%v", nSeg, spec.Criterion)
			if spec.Weights != nil {
				name += "-weighted"
			}
			b.Run(name, func(b *testing.B) {
				pool := new(Pool)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					spec.Query = queries[i%nQueries]
					p, err := NewReusable(segs, spec, pool)
					if err != nil {
						b.Fatal(err)
					}
					p.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nSeg*dims), "ns/cell")
			})
		}
	}
}

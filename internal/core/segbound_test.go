package core_test

import (
	"math"
	"math/rand"
	"testing"

	"bond/internal/core"
	"bond/internal/vstore"
)

// refSegBound is the synopsis bound as it was computed one dimension at a
// time through a DimRange callback: the reference SegBound must match bit
// for bit.
func refSegBound(n int, dimRange func(d int) (lo, hi float64), q []float64, opts core.Options) (bound float64, ok bool) {
	if dimRange == nil || n == 0 {
		return 0, false
	}
	dimBound := func(d int) (float64, bool) {
		w := 1.0
		if len(opts.Weights) > 0 {
			w = opts.Weights[d]
			if w == 0 {
				return 0, true
			}
		}
		lo, hi := dimRange(d)
		if math.IsInf(lo, 1) {
			return 0, false
		}
		if opts.Criterion.Distance() {
			gap := 0.0
			if q[d] < lo {
				gap = lo - q[d]
			} else if q[d] > hi {
				gap = q[d] - hi
			}
			return w * gap * gap, true
		}
		return w * math.Min(q[d], hi), true
	}
	dims := opts.Dims
	if len(dims) == 0 {
		for d := range q {
			dims = append(dims, d)
		}
	}
	for _, d := range dims {
		b, live := dimBound(d)
		if !live {
			return 0, false
		}
		bound += b
	}
	return bound, true
}

// sizedSource is a Source of n slots and nothing else: SegBound asks a
// segment only whether it is empty.
type sizedSource struct {
	core.Source
	n int
}

func (s sizedSource) Len() int { return s.n }

func TestSegBoundMatchesPerDimensionReference(t *testing.T) {
	const dims = 37
	rng := rand.New(rand.NewSource(4))
	weights := make([]float64, dims)
	for d := range weights {
		weights[d] = float64(rng.Intn(3)) * 0.7 // a third of them zero
	}
	subspace := rng.Perm(dims)[:11] // not ascending
	shapes := []struct {
		name    string
		weights []float64
		dims    []int
	}{
		{"plain", nil, nil},
		{"weighted", weights, nil},
		{"subspace", nil, subspace},
		{"weighted subspace", weights, subspace},
	}
	check := func(label string, n int, lo, hi, q []float64) {
		t.Helper()
		var dimRange func(d int) (float64, float64)
		if lo != nil {
			dimRange = func(d int) (float64, float64) { return lo[d], hi[d] }
		}
		view := core.SegmentView{Src: sizedSource{n: n}, Lo: lo, Hi: hi}
		for _, crit := range []core.Criterion{core.Eq, core.Ev, core.Hq, core.Hh} {
			for _, sh := range shapes {
				if crit == core.Hh && sh.weights != nil {
					continue // rejected by validation
				}
				opts := core.Options{Criterion: crit, Weights: sh.weights, Dims: sh.dims}
				want, wantOK := refSegBound(n, dimRange, q, opts)
				got, ok := core.SegBound(&view, q, &opts)
				if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v %s: bound %v (%v), reference %v (%v)", label, crit, sh.name, got, ok, want, wantOK)
				}
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		lo, hi, q := make([]float64, dims), make([]float64, dims), make([]float64, dims)
		for d := range lo {
			a, b := rng.Float64(), rng.Float64()
			lo[d], hi[d] = min(a, b), max(a, b)
			switch rng.Intn(6) {
			case 0:
				q[d] = lo[d] - rng.Float64() // below the box (negative at times)
			case 1:
				q[d] = hi[d] + rng.Float64() // above
			case 2:
				q[d] = lo[d] // on an edge
			case 3:
				q[d] = hi[d]
			default:
				q[d] = lo[d] + (hi[d]-lo[d])*rng.Float64() // inside
			}
		}
		check("random box", 5, lo, hi, q)
		if trial%10 == 0 {
			check("empty segment", 0, lo, hi, q)
			check("no synopsis", 5, nil, nil, q)
			// A dimension nothing was observed in voids the bound — unless its
			// weight is zero or the subspace leaves it out, as before.
			d := rng.Intn(dims)
			lo[d], hi[d] = math.Inf(1), math.Inf(-1)
			check("dimension without data", 5, lo, hi, q)
		}
	}

	// Real segments: sealed ones and the mutable active one, whose views
	// are live — a widening add shows in the next bound without a new view.
	seg := vstore.SegmentedFromVectors(clusterContiguous(3, 20, dims, 8), 20)
	seg.Append(seg.Row(0))
	views := viewsOf(seg)
	q := seg.Row(25)
	far := make([]float64, dims)
	for d := range far {
		far[d] = 1 - seg.Row(0)[d]
	}
	for round := 0; round < 2; round++ {
		for i, g := range seg.Segments() {
			check("store segment", g.Len(), views[i].Lo, views[i].Hi, q)
			for d := 0; d < dims; d++ {
				if lo, hi := g.DimRange(d); views[i].Lo[d] != lo || views[i].Hi[d] != hi {
					t.Fatalf("round %d segment %d dim %d: view holds [%v, %v], store [%v, %v]",
						round, i, d, views[i].Lo[d], views[i].Hi[d], lo, hi)
				}
			}
		}
		seg.Append(far)
	}
}

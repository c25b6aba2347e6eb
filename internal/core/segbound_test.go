package core_test

import (
	"math"
	"math/rand"
	"testing"

	"bond/internal/core"
	"bond/internal/vstore"
)

// refSegBound is the synopsis bound as it was computed one dimension at a
// time through a DimRange callback: SegBound must match it bit for bit.
func refSegBound(dimRange func(d int) (lo, hi float64), q []float64, opts core.Options) float64 {
	dimBound := func(d int) float64 {
		w := 1.0
		if len(opts.Weights) > 0 {
			w = opts.Weights[d]
			if w == 0 {
				return 0
			}
		}
		lo, hi := dimRange(d)
		if opts.Criterion.Distance() {
			gap := 0.0
			if q[d] < lo {
				gap = lo - q[d]
			} else if q[d] > hi {
				gap = q[d] - hi
			}
			return w * gap * gap
		}
		return w * math.Min(q[d], hi)
	}
	dims := opts.Dims
	if len(dims) == 0 {
		for d := range q {
			dims = append(dims, d)
		}
	}
	bound := 0.0
	for _, d := range dims {
		bound += dimBound(d)
	}
	return bound
}

// effectiveDims lists the dimensions a bound sums, in order: Dims or every
// dimension, less the zero weights.
func effectiveDims(dims int, opts core.Options) []int32 {
	var out []int32
	keep := func(d int) {
		if len(opts.Weights) == 0 || opts.Weights[d] != 0 {
			out = append(out, int32(d))
		}
	}
	if len(opts.Dims) > 0 {
		for _, d := range opts.Dims {
			keep(d)
		}
		return out
	}
	for d := 0; d < dims; d++ {
		keep(d)
	}
	return out
}

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
	check := func(label string, lo, hi, q []float64) {
		t.Helper()
		dimRange := func(d int) (float64, float64) { return lo[d], hi[d] }
		view := core.SegmentView{Lo: lo, Hi: hi}
		for _, crit := range []core.Criterion{core.Eq, core.Ev, core.Hq, core.Hh} {
			for _, sh := range shapes {
				if crit == core.Hh && sh.weights != nil {
					continue // rejected by validation
				}
				opts := core.Options{Criterion: crit, Weights: sh.weights, Dims: sh.dims}
				want := refSegBound(dimRange, q, opts)
				ds := effectiveDims(dims, opts)
				got := core.SegBound(&view, q, &opts, ds, 0)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v %s: bound %v, reference %v", label, crit, sh.name, got, want)
				}
				// Summed in two pieces, the bound is the same bits, and a
				// distance prefix never exceeds the whole.
				cut := rng.Intn(len(ds) + 1)
				part := core.SegBound(&view, q, &opts, ds[:cut], 0)
				if crit.Distance() && part > got {
					t.Fatalf("%s %v %s: prefix of %d dims %v exceeds the bound %v", label, crit, sh.name, cut, part, got)
				}
				if rest := core.SegBound(&view, q, &opts, ds[cut:], part); math.Float64bits(rest) != math.Float64bits(got) {
					t.Fatalf("%s %v %s: split at %d sums to %v, whole %v", label, crit, sh.name, cut, rest, got)
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
		check("random box", lo, hi, q)
		if trial%10 == 0 {
			// A dimension nothing was observed in adds +Inf to a distance
			// bound and −Inf to a similarity one, as the reference does.
			d := rng.Intn(dims)
			lo[d], hi[d] = math.Inf(1), math.Inf(-1)
			check("dimension without data", lo, hi, q)
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
			check("store segment", views[i].Lo, views[i].Hi, q)
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

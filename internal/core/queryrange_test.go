package core

import (
	"errors"
	"math"
	"testing"

	"bond/internal/vstore"
)

// TestQueryRangeRejectsOverflow: a query for which some score could be
// non-finite is refused with ErrQueryRange — +Inf is the engine's "no
// candidate" sentinel, so such a score used to drop live vectors from the
// answer — while a query whose scores stay finite answers every vector.
func TestQueryRangeRejectsOverflow(t *testing.T) {
	unit := vstore.FromVectors([][]float64{{1, 0}, {0, 0}})         // values in [0, 1]
	huge := vstore.FromVectors([][]float64{{1e308, 1e308}, {0, 0}}) // values in [0, 1e308]
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		store  *vstore.Store
		q      []float64
		opts   Options
		reject bool
	}{
		{"Eq plain overflow", unit, []float64{-1e200, 0.5}, Options{Criterion: Eq}, true},
		{"Eq plain in range", unit, []float64{-1e150, 0.5}, Options{Criterion: Eq}, false},
		{"Ev plain overflow", unit, []float64{0.5, 1e200}, Options{Criterion: Ev}, true},
		{"Ev plain in range", unit, []float64{0.5, 0.25}, Options{Criterion: Ev}, false},
		{"Eq weighted overflow", unit, []float64{1e5, 0.5}, Options{Criterion: Eq, Weights: []float64{1e300, 1}}, true},
		{"Eq zero weight excludes", unit, []float64{-1e200, 0.5}, Options{Criterion: Eq, Weights: []float64{0, 1}}, false},
		{"Ev subspace excludes", unit, []float64{-1e200, 0.5}, Options{Criterion: Ev, Dims: []int{1}}, false},
		{"Ev subspace overflow", unit, []float64{-1e200, 0.5}, Options{Criterion: Ev, Dims: []int{0}}, true},
		{"Hq plain overflow", huge, []float64{1e308, 1e308}, Options{Criterion: Hq}, true},
		{"Hq plain in range", huge, []float64{1, 1}, Options{Criterion: Hq}, false},
		{"Hq negative query in range", unit, []float64{-1e200, 0.5}, Options{Criterion: Hq}, false},
		{"Hq weighted overflow", huge, []float64{1e308, 0}, Options{Criterion: Hq, Weights: []float64{2, 1}}, true},
		{"Hq subspace in range", huge, []float64{1e308, 1e308}, Options{Criterion: Hq, Dims: []int{0}}, false},
		{"Hh plain overflow", huge, []float64{1e308, 1e308}, Options{Criterion: Hh}, true},
		{"Hh plain in range", unit, []float64{0.5, 0.5}, Options{Criterion: Hh}, false},
		{"Hh subspace in range", huge, []float64{1e308, 1e308}, Options{Criterion: Hh, Dims: []int{1}}, false},
		{"Eq NaN coordinate", unit, []float64{nan, 0.5}, Options{Criterion: Eq}, true},
		{"Hq NaN coordinate", unit, []float64{0.5, nan}, Options{Criterion: Hq}, true},
		{"Hh Inf coordinate", unit, []float64{inf, 0.5}, Options{Criterion: Hh}, true},
		{"Ev -Inf coordinate", unit, []float64{-inf, 0.5}, Options{Criterion: Ev}, true},
		{"NaN coordinate outside the subspace", unit, []float64{nan, 0.5}, Options{Criterion: Ev, Dims: []int{1}}, true},
		{"Eq NaN weight", unit, []float64{0.5, 0.5}, Options{Criterion: Eq, Weights: []float64{nan, 1}}, true},
		{"Hq Inf weight", unit, []float64{0.5, 0.5}, Options{Criterion: Hq, Weights: []float64{1, inf}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.K = 2
			res, err := Search(tc.store, tc.q, tc.opts)
			if tc.reject {
				if !errors.Is(err, ErrQueryRange) {
					t.Fatalf("err = %v, want ErrQueryRange", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != 2 {
				t.Fatalf("got %d results, want both vectors: %+v", len(res.Results), res.Results)
			}
			for _, r := range res.Results {
				if math.IsInf(r.Score, 0) || math.IsNaN(r.Score) {
					t.Fatalf("non-finite score %v for id %d", r.Score, r.ID)
				}
			}
		})
	}
}

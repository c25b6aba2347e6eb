package metric

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// histIntersect, sqEuclidean and weightedSqEuclidean are Definitions 1–3
// summed left to right: the truth the bounds are checked against, itself
// held to the definitions' hand examples below.
func histIntersect(h, q []float64) float64 {
	s := 0.0
	for i := range h {
		s += min(h[i], q[i])
	}
	return s
}

func sqEuclidean(v, q []float64) float64 {
	s := 0.0
	for i := range v {
		d := v[i] - q[i]
		s += d * d
	}
	return s
}

func weightedSqEuclidean(v, q, w []float64) float64 {
	s := 0.0
	for i := range v {
		d := v[i] - q[i]
		s += w[i] * d * d
	}
	return s
}

func TestHistIntersectBasics(t *testing.T) {
	h := []float64{0.5, 0.3, 0.2}
	q := []float64{0.2, 0.5, 0.3}
	// min: 0.2 + 0.3 + 0.2 = 0.7
	if got := histIntersect(h, q); !almostEqual(got, 0.7, 1e-12) {
		t.Errorf("HistIntersect = %v, want 0.7", got)
	}
}

func TestHistIntersectIdenticalIsOne(t *testing.T) {
	h := []float64{0.25, 0.25, 0.25, 0.25}
	if got := histIntersect(h, h); !almostEqual(got, 1, 1e-12) {
		t.Errorf("self intersection = %v, want 1", got)
	}
}

func TestHistIntersectDisjointIsZero(t *testing.T) {
	h := []float64{1, 0}
	q := []float64{0, 1}
	if got := histIntersect(h, q); got != 0 {
		t.Errorf("disjoint intersection = %v, want 0", got)
	}
}

func TestHistIntersectSymmetric(t *testing.T) {
	h := []float64{0.6, 0.1, 0.3}
	q := []float64{0.2, 0.7, 0.1}
	if histIntersect(h, q) != histIntersect(q, h) {
		t.Error("histogram intersection must be symmetric")
	}
}

func TestSqEuclideanBasics(t *testing.T) {
	v := []float64{0, 0}
	q := []float64{0.3, 0.4}
	if got := sqEuclidean(v, q); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("SqEuclidean = %v, want 0.25", got)
	}
	if got := sqEuclidean(q, q); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestSqEuclideanSymmetric(t *testing.T) {
	v := []float64{0.1, 0.9, 0.5}
	q := []float64{0.7, 0.2, 0.4}
	if sqEuclidean(v, q) != sqEuclidean(q, v) {
		t.Error("squared Euclidean must be symmetric")
	}
}

func TestWeightedSqEuclidean(t *testing.T) {
	v := []float64{0, 1}
	q := []float64{1, 0}
	w := []float64{2, 3}
	if got := weightedSqEuclidean(v, q, w); !almostEqual(got, 5, 1e-12) {
		t.Errorf("WeightedSqEuclidean = %v, want 5", got)
	}
}

func TestWeightedReducesToUnweighted(t *testing.T) {
	v := []float64{0.1, 0.4, 0.8}
	q := []float64{0.5, 0.5, 0.2}
	w := []float64{1, 1, 1}
	if got, want := weightedSqEuclidean(v, q, w), sqEuclidean(v, q); !almostEqual(got, want, 1e-12) {
		t.Errorf("unit weights: %v != %v", got, want)
	}
}

func TestEuclideanSim(t *testing.T) {
	// Equation 3: Sim = 1 − sqrt(δ/N). Maximum distance N gives Sim 0.
	if got := EuclideanSim(4, 4); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Sim(max dist) = %v, want 0", got)
	}
	if got := EuclideanSim(0, 4); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Sim(0) = %v, want 1", got)
	}
	if got := EuclideanSim(1, 4); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Sim(1,N=4) = %v, want 0.5", got)
	}
}

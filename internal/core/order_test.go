package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oldBuildOrder is buildOrderInto as it stood while it stable-sorted the
// dimensions through key closures, plus the expected-contribution key a
// distance query sorts by under OrderQueryDesc when moments are given; kept
// as the reference for the order.
func oldBuildOrder(q, weights []float64, dims []int, order Order, distance bool, mom *Moments) []int {
	var eff []int
	if len(dims) > 0 {
		eff = append(eff, dims...)
	} else {
		for i := range q {
			eff = append(eff, i)
		}
	}
	if len(weights) > 0 {
		kept := eff[:0]
		for _, d := range eff {
			if weights[d] > 0 {
				kept = append(kept, d)
			}
		}
		eff = kept
	}
	key := func(d int) float64 {
		if distance && order == OrderQueryDesc && mom != nil {
			w := 1.0
			if len(weights) > 0 {
				w = weights[d]
			}
			return w * ((mom.Mean[d]-q[d])*(mom.Mean[d]-q[d]) + mom.Var[d])
		}
		if len(weights) == 0 {
			return q[d]
		}
		if !distance {
			return weights[d] * q[d]
		}
		m := q[d]
		if 1-q[d] > m {
			m = 1 - q[d]
		}
		return weights[d] * m * m
	}
	cmpDesc := func(a, b int) int {
		ka, kb := key(a), key(b)
		switch {
		case ka > kb:
			return -1
		case ka < kb:
			return 1
		}
		return 0
	}
	switch order {
	case OrderQueryDesc:
		slices.SortStableFunc(eff, cmpDesc)
	case OrderQueryAsc:
		slices.SortStableFunc(eff, func(a, b int) int { return cmpDesc(b, a) })
	}
	return eff
}

// The processing order is the one the stable sort gave, ties included: query
// values drawn from a handful of levels (±0 among them) so most keys tie,
// weights with zeros, subspaces listed in a shuffled order (a tie keeps the
// listed order, not the dimension order), both metrics, every sorted Order,
// with and without moments (means and variances from a handful of levels
// too, so expected contributions tie), and a reused key buffer.
func TestBuildOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sc orderScratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		q := make([]float64, n)
		for d := range q {
			q[d] = float64(rng.Intn(5)) / 4
			if q[d] == 0 && rng.Intn(2) == 0 {
				q[d] = math.Copysign(0, -1) // ties +0 in every key
			}
		}
		var weights []float64
		if rng.Intn(2) == 0 {
			weights = make([]float64, n)
			for d := range weights {
				weights[d] = float64(rng.Intn(3))
			}
		}
		var dims []int
		if rng.Intn(2) == 0 {
			dims = rng.Perm(n)[:1+rng.Intn(n)]
		}
		mom := &Moments{Mean: make([]float64, n), Var: make([]float64, n)}
		for d := range mom.Mean {
			mom.Mean[d] = float64(rng.Intn(3)) / 4
			mom.Var[d] = float64(rng.Intn(3)) / 16
		}
		for _, order := range []Order{OrderQueryDesc, OrderQueryAsc, OrderNatural} {
			for _, distance := range []bool{false, true} {
				for _, m := range []*Moments{nil, mom} {
					want := oldBuildOrder(q, weights, dims, order, distance, m)
					got := buildOrderInto(nil, &sc, q, weights, dims, order, 0, distance, m)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d order %v distance %v weights %v dims %v q %v moments %v:\n got %v\nwant %v",
							trial, order, distance, weights, dims, q, m, got, want)
					}
				}
			}
		}
	}
}

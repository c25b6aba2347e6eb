package core

import (
	"math/rand"
	"slices"
)

// buildOrderInto returns, in dst's backing array (allocation-free when it
// has the capacity, except for OrderRandom's seeded generator), the
// processing order over the effective dimensions: those listed in dims (or
// all, if dims is empty), minus zero-weight dimensions when weights are
// present — BOND never reads columns that cannot contribute to the score
// (Section 8.1).
//
// OrderQueryDesc sorts by decreasing query value; weighted queries sort by
// each dimension's largest possible contribution — w·max(q, 1−q)² for
// distance metrics, w·q for histogram intersection. (The paper's
// Section 8.2 suggests weight-normalized query skew, i.e. w·q²; for
// distance metrics that key can schedule a heavy-weight dimension with a
// small query value last, leaving a huge term in every vector's tail upper
// bound and stalling pruning entirely. The max-contribution key processes
// exactly the dimensions that can separate candidates first and reduces to
// the same ordering when query values exceed ½.)
func buildOrderInto(dst []int, q, weights []float64, dims []int, order Order, seed int64, distance bool) []int {
	eff := dst[:0]
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
		if len(weights) == 0 {
			return q[d]
		}
		if !distance {
			return weights[d] * q[d] // max contribution of min(h,q) is q
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
	case OrderRandom:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(eff), func(i, j int) { eff[i], eff[j] = eff[j], eff[i] })
	case OrderNatural:
		// keep storage order
	}
	return eff
}

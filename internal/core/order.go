package core

import (
	"math/rand"
	"slices"
)

// buildOrderInto returns, in dst's backing array (allocation-free when it
// and the sort-key buffer *keys have the capacity, except for OrderRandom's
// seeded generator), the processing order over the effective dimensions:
// those listed in dims (or all, if dims is empty), minus zero-weight
// dimensions when weights are present — BOND never reads columns that
// cannot contribute to the score (Section 8.1).
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
func buildOrderInto(dst []int, keys *[]dimKey, q, weights []float64, dims []int, order Order, seed int64, distance bool) []int {
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

	switch order {
	case OrderQueryDesc, OrderQueryAsc:
		// Sort (key, position) pairs rather than the dimensions through a
		// key closure: the position breaks ties, which makes the order total
		// and equal to a stable sort's, and the direction is folded into
		// the key's sign.
		ks := grow(*keys, len(eff))
		for pos, d := range eff {
			k := q[d]
			switch {
			case len(weights) == 0:
			case !distance:
				k *= weights[d] // max contribution of min(h,q) is q
			default:
				m := max(k, 1-k)
				k = weights[d] * m * m
			}
			if order == OrderQueryDesc {
				k = -k
			}
			ks = append(ks, dimKey{key: k, pos: int32(pos), dim: int32(d)})
		}
		slices.SortFunc(ks, cmpDimKey)
		for i, k := range ks {
			eff[i] = int(k.dim)
		}
		*keys = ks
	case OrderRandom:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(eff), func(i, j int) { eff[i], eff[j] = eff[j], eff[i] })
	case OrderNatural:
		// keep storage order
	}
	return eff
}

// dimKey is one effective dimension as buildOrderInto sorts it.
type dimKey struct {
	key      float64 // ascending sort key (negated for a descending order)
	pos, dim int32   // position among the effective dimensions; the dimension
}

func cmpDimKey(a, b dimKey) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return int(a.pos - b.pos)
}

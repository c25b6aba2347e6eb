package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// buildOrderInto returns, in dst's backing array (allocation-free when it
// and the sort buffers in sc have the capacity, except for OrderRandom's
// seeded generator), the processing order over the effective dimensions:
// those listed in dims (or all, if dims is empty), minus zero-weight
// dimensions when weights are present — BOND never reads columns that
// cannot contribute to the score (Section 8.1).
//
// OrderQueryDesc sorts by decreasing key, OrderQueryAsc by increasing key
// (Figure 7's worst case). The key is a dimension's expected contribution
// to the score, with w = 1 for an unweighted query:
//
//   - histogram intersection: q, or w·q when weighted — the most min(h, q)
//     can add;
//   - distance, under OrderQueryDesc with moments: w·((μ − q)² + σ²), the
//     expected (v − q)² over the collection's values (Section 5.1: the
//     dimensions that separate candidates most go first, so the tail bound
//     shrinks fastest). On uniform data it puts the q far from ½ first,
//     whatever their side;
//   - distance otherwise: q, or w·max(q, 1−q)² when weighted, the paper's
//     order and the largest possible contribution. (Section 8.2's
//     weight-normalized skew w·q² can schedule a heavy-weight dimension
//     with a small query value last, leaving a huge term in every vector's
//     tail upper bound and stalling pruning.)
//
// Without moments the keys are the paper's, so the paper's figures, which
// pass none, order the dimensions as the paper does.
func buildOrderInto(dst []int, sc *orderScratch, q, weights []float64, dims []int, order Order, seed int64, distance bool, mom *Moments) []int {
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
		expected := distance && order == OrderQueryDesc && mom != nil && len(mom.Mean) == len(q)
		ks := grow(sc.keys, len(eff))
		for pos, d := range eff {
			k := q[d]
			switch {
			case expected:
				gap := mom.Mean[d] - k
				k = gap*gap + mom.Var[d]
				if len(weights) > 0 {
					k *= weights[d]
				}
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
		sc.keys = ks
		for i, p := range sc.sort() {
			eff[i] = int(ks[p].dim)
		}
	case OrderRandom:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(eff), func(i, j int) { eff[i], eff[j] = eff[j], eff[i] })
	case OrderNatural:
		// keep storage order
	}
	return eff
}

// orderScratch is buildOrderInto's sort staging.
type orderScratch struct {
	keys   []dimKey // indexed by position
	packed []uint64
}

// sort returns the positions of keys in (key, position) order, in a
// buffer the next call reuses. A comparator costs a call and a likely
// mispredicted branch per comparison, most of Init for a query's few
// dozen dimensions, so sort packs each key into an integer that orders
// like it — the key's order-preserving bits with the lowest ones replaced
// by its position — sorts the integers with the inlined ordered sort, and
// then settles the keys the dropped bits could not tell apart with an
// insertion pass, which on any other input only confirms the order.
func (sc *orderScratch) sort() []uint64 {
	ks := sc.keys
	low := uint64(1)<<bits.Len(uint(len(ks))) - 1
	u := grow(sc.packed, len(ks))
	for p, k := range ks {
		u = append(u, orderBits(k.key)&^low|uint64(p))
	}
	slices.Sort(u)
	for i := range u {
		u[i] &= low
		for j := i; j > 0 && cmpDimKey(ks[u[j]], ks[u[j-1]]) < 0; j-- {
			u[j], u[j-1] = u[j-1], u[j]
		}
	}
	sc.packed = u
	return u
}

// orderBits maps a finite float64 to a uint64 in the same order (−0 just
// below +0, which the insertion pass then ties).
func orderBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
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

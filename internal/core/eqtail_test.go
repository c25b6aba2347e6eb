package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bond/internal/metric"
)

// floatTail is the float score a vector v earns over the dimensions
// order[p:], summed left to right in processing order from 0, as the
// engine's kernels sum it.
func floatTail(q, v []float64, order []int, p int) float64 {
	s := 0.0
	for _, d := range order[p:] {
		diff := v[d] - q[d]
		s += float64(diff * diff)
	}
	return s
}

// Eq's tail constant comes from Query.eqUpper, not from an EucTail over the
// gathered remaining query values. At every step position, in every
// processing order (the expected-contribution order included), with
// NormalizedData on and off, on queries with many equal values, −0, 0 and
// 1, it must bound the float tail of the worst vertex bit for bit — the
// corner v_d = [q_d < ½] without NormalizedData, and with it every vertex
// holding at most unit mass — and exceed the EucTail's exact-order constant
// by no more than twice the slack, so the bound stays as tight as before.
func TestEqUpperBoundsFloatTail(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		dims := 1 + rng.Intn(40)
		q := make([]float64, dims)
		levels := 1 + rng.Intn(6)
		for d := range q {
			switch rng.Intn(5) {
			case 0:
				q[d] = float64(rng.Intn(levels+1)) / float64(levels) // duplicates, 0 and 1 among them
			case 1:
				q[d] = math.Copysign(0, -1)
			default:
				q[d] = rng.Float64()
			}
		}
		mom := &Moments{Mean: make([]float64, dims), Var: make([]float64, dims)}
		for d := range mom.Mean {
			mom.Mean[d], mom.Var[d] = rng.Float64(), rng.Float64()/12
		}
		orders := []struct {
			order Order
			mom   *Moments
		}{{OrderQueryDesc, nil}, {OrderQueryDesc, mom}, {OrderQueryAsc, nil}, {OrderRandom, nil}, {OrderNatural, nil}}
		for _, o := range orders {
			for _, normalized := range []bool{false, true} {
				var qs Query
				qs.Init(q, Options{K: 1, Criterion: Eq, Order: o.order, Seed: int64(trial), NormalizedData: normalized, Moments: o.mom})
				maxSq := 0.0
				for _, x := range q {
					maxSq += max(x, 1-x) * max(x, 1-x)
				}
				slack := float64(4*(dims+2)) * 0x1p-53 * maxSq
				for p := 0; p <= len(qs.order); p++ {
					rest := make([]float64, 0, dims)
					for _, d := range qs.order[p:] {
						rest = append(rest, q[d])
					}
					label := fmt.Sprintf("q=%v order=%v moments=%v normalized=%v p=%d", q, o.order, o.mom != nil, normalized, p)
					got := qs.bound(p).c
					if qs.bounds[p].euc != nil {
						t.Fatalf("%s: built an EucTail", label)
					}

					worst := 0.0
					v := make([]float64, dims)
					if normalized {
						worst = floatTail(q, v, qs.order, p) // no mass left
						for _, d := range qs.order[p:] {
							v[d] = 1
							worst = max(worst, floatTail(q, v, qs.order, p))
							v[d] = 0
						}
					} else {
						for d := range v {
							if q[d] < 0.5 {
								v[d] = 1
							}
						}
						worst = floatTail(q, v, qs.order, p)
					}
					if got < worst {
						t.Fatalf("%s: constant %v (%x) below the worst vertex's float tail %v (%x)",
							label, got, math.Float64bits(got), worst, math.Float64bits(worst))
					}

					et := metric.NewEucTail(rest)
					exact := et.EqUpper()
					if normalized {
						exact = et.EqUpperNormalized()
					}
					if got > exact+2*slack || got < exact {
						t.Fatalf("%s: constant %v, EucTail %v, slack %v", label, got, exact, slack)
					}
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// A weighted distance query's tail constant (metric.WeightedTail's
// UpperConst, Σ w·q² plus the positive gains) rounds apart from the float
// sum a score takes of the same terms, so it too must carry the slack. At
// every step position, in every processing order, with weights from 1e-200
// to 1e200 beside zeros and subspaces, it must bound every float
// left-to-right sum of the remaining terms w·max(q, 1−q)² — each rounded as
// the run kernels round a row's, (w·diff)·diff at the far vertex — in the
// processing order and in random ones. The first two cases are ones the
// constant without the slack rounds one ulp under.
func TestWeightedUpperBoundsFloatTail(t *testing.T) {
	type tc struct{ q, w []float64 }
	cases := []tc{
		{[]float64{0.23226844625010476}, []float64{1e-8}},
		{[]float64{0.47751537726231785}, []float64{1e-200}},
		{[]float64{0.5, 0.23226844625010476, 0.47751537726231785}, []float64{0, 1e-8, 1e-200}},
	}
	rng := rand.New(rand.NewSource(42))
	special := []float64{0, math.Copysign(0, -1), 1, 0.5}
	extreme := []float64{0, 1e-200, 1e-8, 1, 3, 1e8, 1e200}
	for len(cases) < 600 {
		dims := 1 + rng.Intn(24)
		c := tc{make([]float64, dims), make([]float64, dims)}
		for d := range c.q {
			c.q[d] = rng.Float64()
			if rng.Intn(3) == 0 {
				c.q[d] = special[rng.Intn(len(special))]
			}
			c.w[d] = extreme[rng.Intn(len(extreme))]
			if len(cases)%3 == 0 {
				c.w[d] = rng.Float64()
			}
		}
		cases = append(cases, c)
	}
	for i, c := range cases {
		for _, crit := range []Criterion{Eq, Ev} {
			for o := Order(0); o < 4; o++ {
				opts := Options{K: 1, Criterion: crit, Order: o, Seed: int64(i), Weights: c.w}
				if i%4 == 3 { // a subspace: 0/1 weights synthesized from Dims
					opts.Weights, opts.Dims = nil, rng.Perm(len(c.q))[:1+rng.Intn(len(c.q))]
				}
				var qs Query
				qs.Init(c.q, opts)
				for p := 0; p < len(qs.order); p++ {
					got := qs.bound(p).c
					rest := slices.Clone(qs.order[p:])
					for r := 0; r < 8; r++ {
						if r > 0 {
							rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
						}
						s := 0.0
						for _, d := range rest {
							diff := 1 - c.q[d]
							if c.q[d] >= 0.5 {
								diff = -c.q[d]
							}
							s += qs.weights[d] * diff * diff
						}
						if got < s {
							t.Fatalf("case %d %v order %v p=%d: constant %v (%x) below the float tail %v (%x) (q %v, w %v, dims %v)",
								i, crit, o, p, got, math.Float64bits(got), s, math.Float64bits(s), c.q, qs.weights, opts.Dims)
						}
					}
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bond/internal/metric"
)

// Eq's tail constant comes from Query.eqUpper, not from an EucTail over the
// gathered remaining query values; it must be the EucTail's constant bit
// for bit, at every step position, in every processing order, with
// NormalizedData on and off, on queries with many equal values.
func TestEqUpperMatchesEucTail(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		dims := 1 + rng.Intn(40)
		q := make([]float64, dims)
		levels := 1 + rng.Intn(6)
		for d := range q {
			switch rng.Intn(4) {
			case 0:
				q[d] = float64(rng.Intn(levels)) / float64(levels) // duplicates, 0 among them
			case 1:
				q[d] = math.Copysign(0, -1)
			default:
				q[d] = rng.Float64()
			}
		}
		for _, order := range []Order{OrderQueryDesc, OrderQueryAsc, OrderRandom, OrderNatural} {
			for _, normalized := range []bool{false, true} {
				var qs Query
				qs.Init(q, Options{K: 1, Criterion: Eq, Order: order, Seed: int64(trial), NormalizedData: normalized})
				for p := 0; p <= len(qs.order); p++ {
					rest := make([]float64, 0, dims)
					for _, d := range qs.order[p:] {
						rest = append(rest, q[d])
					}
					et := metric.NewEucTail(rest)
					want := et.EqUpper()
					if normalized {
						want = et.EqUpperNormalized()
					}
					label := fmt.Sprintf("q=%v order=%v normalized=%v p=%d", q, order, normalized, p)
					if got := qs.bound(p).c; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: %v (%x), EucTail %v (%x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if qs.bounds[p].euc != nil {
						t.Fatalf("%s: built an EucTail", label)
					}
				}
			}
		}
	}
}

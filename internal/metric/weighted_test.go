package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeightedTailReducesToUnweightedBounds(t *testing.T) {
	qTail := []float64{0.4, 0.1, 0.3}
	w := []float64{1, 1, 1}
	wt := NewWeightedTail(qTail, w)
	et := NewEucTail(qTail)
	for _, tv := range []float64{0, 0.3, 0.8, 1.5, 2.9} {
		// The gain-form upper bound may be looser than Lemma 1 by at most
		// one gain term, but must always dominate it.
		if wt.Upper(tv) < et.EvUpper(tv)-1e-12 {
			t.Errorf("unit-weight Upper(%v) = %v below Lemma 1 %v", tv, wt.Upper(tv), et.EvUpper(tv))
		}
		// The lower bound must match Lemma 2 exactly (Σ1/w = r).
		if got, want := wt.Lower(tv), et.EvLowerSimple(tv); !almostEqual(got, want, 1e-12) {
			t.Errorf("unit-weight Lower(%v) = %v, want %v", tv, got, want)
		}
	}
}

func TestWeightedLowerEquation15(t *testing.T) {
	// Eq. 15: min Σ w_i d_i² s.t. Σ d_i = D is D²/Σ(1/w_i).
	qTail := []float64{0.2, 0.2}
	w := []float64{1, 4}
	wt := NewWeightedTail(qTail, w)
	// t = 1.4: D = 1.0; Σ1/w = 1.25; bound = 1/1.25 = 0.8.
	if got := wt.Lower(1.4); !almostEqual(got, 0.8, 1e-12) {
		t.Errorf("Lower = %v, want 0.8", got)
	}
	// Verify against the analytic optimum d_i ∝ 1/w_i: d = (0.8, 0.2),
	// cost = 1·0.64 + 4·0.04 = 0.8. ✓
}

func TestWeightedZeroWeightAbsorption(t *testing.T) {
	// One zero-weight dimension can absorb up to one unit of imbalance.
	qTail := []float64{0.5, 0.0}
	w := []float64{1, 0}
	wt := NewWeightedTail(qTail, w)
	// t = 1.2: positive dims should carry 0.5 (= T(q⁺_pos)), absorber takes
	// 0.7 ≤ 1: lower bound 0.
	if got := wt.Lower(1.2); got != 0 {
		t.Errorf("Lower = %v, want 0 (absorber covers imbalance)", got)
	}
	// t = 1.8: absorber full at 1, positive dim must carry 0.8:
	// D = 0.3, bound = 0.09.
	if got := wt.Lower(1.8); !almostEqual(got, 0.09, 1e-12) {
		t.Errorf("Lower = %v, want 0.09", got)
	}
}

func TestWeightedAllZeroWeights(t *testing.T) {
	wt := NewWeightedTail([]float64{0.5, 0.5}, []float64{0, 0})
	if wt.Lower(2) != 0 || wt.Upper(2) != 0 || wt.UpperConst() != 0 {
		t.Error("all-zero weights must give zero bounds")
	}
}

func TestWeightedUpperAllMassAtHeavyDim(t *testing.T) {
	// This is the configuration where the published Eq. 14 greedy (ordering
	// by w·q²) picks the wrong vertex: q = (0.4, 0.1), w = (1, 100), t = 1.
	// True maximum places the mass on the heavy dimension:
	// 100·(0.9)² + 1·(0.4)² = 81.16.
	qTail := []float64{0.4, 0.1}
	w := []float64{1, 100}
	wt := NewWeightedTail(qTail, w)
	truth := weightedSqEuclidean([]float64{0, 1}, qTail, w)
	if !almostEqual(truth, 81.16, 1e-9) {
		t.Fatalf("sanity: truth = %v", truth)
	}
	if wt.Upper(1) < truth-1e-9 {
		t.Errorf("Upper(1) = %v must dominate true max %v", wt.Upper(1), truth)
	}
}

func TestWeightedPanics(t *testing.T) {
	if r := func() (r any) {
		defer func() { r = recover() }()
		NewWeightedTail([]float64{1}, []float64{1, 2})
		return nil
	}(); r == nil {
		t.Error("expected panic on length mismatch")
	}
	if r := func() (r any) {
		defer func() { r = recover() }()
		NewWeightedTail([]float64{1}, []float64{-1})
		return nil
	}(); r == nil {
		t.Error("expected panic on negative weight")
	}
}

// enumVertexMax computes the exact maximum of Σ w_i (v_i − q_i)² over the
// slab {Σ v_i = t, 0 ≤ v_i ≤ 1} by enumerating all vertices (subsets of
// ones plus one fractional coordinate). Exponential — test sizes only.
func enumVertexMax(q, w []float64, t float64) float64 {
	r := len(q)
	ones := int(math.Floor(t))
	u := t - float64(ones)
	if ones >= r {
		return weightedSqEuclidean(onesVec(r), q, w)
	}
	best := math.Inf(-1)
	// Choose the set of 1-coordinates (size `ones`) and the fractional
	// coordinate j via bitmask enumeration.
	for mask := 0; mask < 1<<r; mask++ {
		if popcount(mask) != ones {
			continue
		}
		for j := 0; j < r; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			v := make([]float64, r)
			for i := 0; i < r; i++ {
				if mask&(1<<i) != 0 {
					v[i] = 1
				}
			}
			v[j] = u
			if d := weightedSqEuclidean(v, q, w); d > best {
				best = d
			}
		}
		if ones == r { // no fractional coordinate needed
			v := make([]float64, r)
			for i := 0; i < r; i++ {
				if mask&(1<<i) != 0 {
					v[i] = 1
				}
			}
			if d := weightedSqEuclidean(v, q, w); d > best {
				best = d
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

func onesVec(r int) []float64 {
	v := make([]float64, r)
	for i := range v {
		v[i] = 1
	}
	return v
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// Property: the weighted upper bound dominates the exact vertex maximum
// (hence every feasible tail), and the lower bound is never beaten by a
// random feasible tail.
func TestWeightedBoundsValid(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw)%5 + 1 // vertex enumeration is exponential
		q := make([]float64, r)
		w := make([]float64, r)
		for i := range q {
			q[i] = rng.Float64()
			w[i] = rng.Float64() * 10
			if rng.Intn(4) == 0 {
				w[i] = 0
			}
		}
		wt := NewWeightedTail(q, w)
		tv := rng.Float64() * float64(r)
		exact := enumVertexMax(q, w, tv)
		if wt.Upper(tv) < exact-1e-9 {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			v := randomFeasibleTail(rng, r, tv)
			d := weightedSqEuclidean(v, q, w)
			if d < wt.Lower(tailSum(v))-1e-9 {
				return false
			}
			if d > wt.UpperConst()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

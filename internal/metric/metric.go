// Package metric derives the branch-and-bound pruning bounds of the BOND
// paper's similarity metrics. It sums no score: a score is the engine's
// storage-order sum (package core) or a sequential scan's (package
// seqscan).
//
// Two metrics are covered, following Section 3.2 of the paper:
//
//   - Histogram intersection (Definition 1): Sim(h,q) = Σ min(h_i, q_i)
//     over normalized histograms (T(h) = 1). Larger is more similar.
//   - (Squared) Euclidean distance (Definition 2): δ(v,q) = Σ (v_i − q_i)²
//     over vectors in the unit hyper-box. Smaller is more similar.
//
// plus the weighted Euclidean distance of Definition 3 (Appendix A).
//
// For each metric the package derives the upper and lower bounds on the
// still-unseen tail S(x⁺, q⁺) that Algorithm 2 needs:
//
//   - Hq (Eq. 5):  0 ≤ S(h⁺,q⁺) ≤ T(q⁺), constants per iteration.
//   - Hh (Eq. 7–8): per-vector bounds using the vector's tail mass T(h⁺).
//   - Eq (Eq. 10): constant worst-corner upper bound, plus the stricter
//     variant available when every vector is known to be normalized.
//   - Ev (Lemmas 1–2, Eq. 11–12): per-vector bounds using T(v⁺), with the
//     stricter feasibility-clamped lower bound from footnote 3.
//   - Weighted Ev (Eq. 14–15): the Appendix A extension.
package metric

import (
	"fmt"
	"math"
)

// EuclideanSim converts a squared Euclidean distance into the similarity of
// Equation 3: Sim = 1 − sqrt(δ/N). N is the dimensionality.
func EuclideanSim(sqDist float64, n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("metric: non-positive dimensionality %d", n))
	}
	return 1 - math.Sqrt(sqDist/float64(n))
}

package metric

import "math"

// HistTail provides the tail bounds for histogram intersection over a given
// set of remaining (unprocessed) query dimensions. It covers both criteria
// of Section 4.1:
//
//   - Hq (Eq. 5): bounds that depend only on the query, identical for every
//     histogram: 0 ≤ S(h⁺,q⁺) ≤ T(q⁺).
//   - Hh (Eq. 7–8): per-histogram bounds that additionally use the
//     histogram's remaining mass T(h⁺) = 1 − T(h⁻):
//     S(h⁺,q⁺) ≤ min{T(h⁺), T(q⁺)} and S(h⁺,q⁺) ≥ min{qmin, T(h⁺)},
//     where qmin is the smallest query value among the remaining dimensions.
type HistTail struct {
	tq   float64 // T(q⁺), total remaining query mass
	qmin float64 // min of the remaining query values (0 if no dims remain)
}

// NewHistTail prepares tail bounds for the remaining query values qTail
// (the query coefficients of the not-yet-processed dimensions, any order).
func NewHistTail(qTail []float64) HistTail {
	t := HistTail{}
	if len(qTail) == 0 {
		return t
	}
	t.qmin = math.Inf(1)
	for _, q := range qTail {
		t.tq += q
		if q < t.qmin {
			t.qmin = q
		}
	}
	return t
}

// TQ returns T(q⁺), the total remaining query mass.
func (t HistTail) TQ() float64 { return t.tq }

// HqUpper returns the query-only upper bound on S(h⁺,q⁺) (Eq. 5): T(q⁺).
func (t HistTail) HqUpper() float64 { return t.tq }

// HqLower returns the query-only lower bound on S(h⁺,q⁺): zero.
func (t HistTail) HqLower() float64 { return 0 }

// HhUpper returns the per-histogram upper bound of Eq. 7 given the
// histogram's remaining mass th = T(h⁺).
func (t HistTail) HhUpper(th float64) float64 {
	if th < 0 {
		th = 0 // guard against accumulated floating-point error
	}
	return math.Min(th, t.tq)
}

// HhLower returns the per-histogram lower bound of Eq. 8 given the
// histogram's remaining mass th = T(h⁺): min{qmin, T(h⁺)}.
func (t HistTail) HhLower(th float64) float64 {
	if th < 0 {
		th = 0
	}
	if t.tq == 0 { // no dimensions remain
		return 0
	}
	return math.Min(t.qmin, th)
}

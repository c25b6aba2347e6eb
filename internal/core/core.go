// Package core implements BOND — Branch-and-bound ON Decomposed data — the
// k-NN search algorithm of the paper (Algorithm 2).
//
// BOND scans the dimensional columns of a vertically decomposed collection
// (package vstore) in a query-dependent order, accumulating each vector's
// partial score over the dimensions seen so far. After every batch of m
// columns it derives, per vector, an upper and a lower bound on the final
// score from the partial score and (for the stronger criteria) the vector's
// remaining mass T(v⁺), then discards every vector whose best case cannot
// reach the worst case of the current k-th best. The surviving candidate
// set shrinks rapidly, so later columns are read only for a small fraction
// of the collection.
//
// Four pruning criteria are supported, as derived in Section 4:
//
//   - Hq: histogram intersection, bounds from the query only (Eq. 5–6).
//   - Hh: histogram intersection, per-vector bounds using T(h⁻) (Eq. 7–9).
//   - Eq: squared Euclidean distance, constant bounds (Eq. 10).
//   - Ev: squared Euclidean distance, per-vector bounds (Lemmas 1–2).
//
// Weighted queries (Definition 3, Appendix A) and dimensional-subspace
// queries (Section 8.1, weights ∈ {0,1}) run through the same loop with
// the weighted bounds of package metric.
package core

import (
	"errors"
	"fmt"
	"math"

	"bond/internal/bitmap"
	"bond/internal/topk"
)

// Source is the narrow storage contract every search path runs against:
// a vertically decomposed, fixed-dimensionality collection addressed by
// dense positional ids. Both the flat vstore.Store and each segment of a
// segmented store satisfy it, so one engine serves both layouts.
//
// Column and Totals return live views that must not be mutated; see the
// vstore documentation for the aliasing rules. DeletedBitmap returns a
// snapshot the engine may keep.
type Source interface {
	// Dims returns the dimensionality.
	Dims() int
	// Len returns the number of id slots, including delete-marked ones.
	Len() int
	// Column returns the d-th dimension column, indexed by id (read-only).
	Column(d int) []float64
	// Totals returns the per-vector totals T(v) side table (read-only).
	Totals() []float64
	// DeletedBitmap returns a snapshot of the delete marks.
	DeletedBitmap() *bitmap.Bitmap
	// ValueRange returns a conservative range over every coefficient.
	ValueRange() (lo, hi float64)
}

// meta is the subset of Source that option validation needs; it is also
// satisfied by aggregate descriptions of a segmented collection.
type meta interface {
	Dims() int
	Len() int
	ValueRange() (lo, hi float64)
}

// Criterion selects the pruning rule, which also fixes the metric:
// Hq and Hh rank by histogram intersection (larger is better), Eq and Ev by
// squared Euclidean distance (smaller is better).
type Criterion int

const (
	// Hq is the query-only histogram-intersection criterion (Eq. 5–6).
	Hq Criterion = iota
	// Hh is the per-vector histogram-intersection criterion (Eq. 7–9).
	Hh
	// Eq is the query-only Euclidean criterion (Eq. 10).
	Eq
	// Ev is the per-vector Euclidean criterion (Lemmas 1–2).
	Ev
)

// String returns the paper's name for the criterion.
func (c Criterion) String() string {
	switch c {
	case Hq:
		return "Hq"
	case Hh:
		return "Hh"
	case Eq:
		return "Eq"
	case Ev:
		return "Ev"
	}
	return fmt.Sprintf("Criterion(%d)", int(c))
}

// Distance reports whether the criterion ranks by distance (smallest wins).
func (c Criterion) Distance() bool { return c == Eq || c == Ev }

// Order selects the processing order of the dimensions (Section 5.1).
type Order int

const (
	// OrderQueryDesc is the default: dimensions by decreasing expected
	// contribution to the score. For Hq and Hh that is the query value (the
	// paper's default, which works well on Zipfian data), weighted w·q. For
	// Eq and Ev it is w·((μ − q)² + σ²) when Options.Moments carries the
	// collection's per-dimension mean μ and variance σ², and otherwise
	// the query value, or w·max(q, 1−q)² for a weighted query (w = 1
	// without weights). See buildOrderInto.
	OrderQueryDesc Order = iota
	// OrderQueryAsc is the worst-case ordering of Figure 7.
	OrderQueryAsc
	// OrderRandom shuffles the dimensions using Options.Seed.
	OrderRandom
	// OrderNatural keeps the storage order.
	OrderNatural
)

// String names the ordering.
func (o Order) String() string {
	switch o {
	case OrderQueryDesc:
		return "desc"
	case OrderQueryAsc:
		return "asc"
	case OrderRandom:
		return "random"
	case OrderNatural:
		return "natural"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// DefaultStep is the paper's default pruning granularity m = 8
// (Section 7.1).
const DefaultStep = 8

// adaptiveThreshold is the pruned fraction below which AdaptiveStep
// doubles the step.
const adaptiveThreshold = 0.05

// Options configures a BOND search.
type Options struct {
	// K is the number of neighbors to return. Required, ≥ 1.
	K int
	// Criterion selects metric and pruning rule. Default Hq.
	Criterion Criterion
	// Order selects the dimension processing order. Default OrderQueryDesc.
	Order Order
	// Seed drives OrderRandom.
	Seed int64
	// Step is the number of dimensions processed between pruning attempts
	// (the paper's m). Default DefaultStep.
	Step int
	// AdaptiveStep enables the dynamic-m variant Section 5.2 poses as an
	// open question: whenever a pruning attempt removes less than
	// adaptiveThreshold of the candidates, the step doubles (bounded by
	// the remaining dimensions), amortizing the per-step kfetch and
	// compaction overhead once pruning has run dry. A step that prunes
	// well again resets to the configured Step.
	AdaptiveStep bool
	// Weights enables weighted search. For Euclidean criteria this is the
	// weighted distance of Definition 3; for criterion Hq it is the
	// weighted histogram intersection Σ w_i·min(h_i, q_i) used by
	// multi-feature processing (Section 8.2). Zero weights exclude
	// dimensions (subspace search). Length must equal the store
	// dimensionality.
	Weights []float64
	// Dims restricts the search to a dimensional subspace (Section 8.1).
	// For Euclidean criteria this is sugar for 0/1 weights; for histogram
	// criteria only the listed dimensions contribute to the score.
	Dims []int
	// Exclude removes vectors from consideration before the search starts —
	// delete marks (Section 6.2) or the complement of a prior selection
	// predicate (Section 6.1). May be nil.
	Exclude *bitmap.Bitmap
	// NormalizedData declares that every stored vector is known to sum
	// to 1, enabling the stricter constant bound for Eq used in
	// Section 7.1. Ignored by other criteria.
	NormalizedData bool
	// Moments are the searched collection's per-dimension value moments,
	// which OrderQueryDesc ranks the dimensions of a distance query by;
	// nil or empty keeps the paper's keys. Any moments give exact answers:
	// they only change how soon candidates are pruned.
	Moments *Moments
}

// StepStat records the candidate set after one pruning iteration.
type StepStat struct {
	// Segment is the index of the physical segment the step ran in. In a
	// merged multi-segment Stats the steps of different segments are
	// concatenated in processing order and DimsProcessed restarts per
	// segment; Segment tells them apart. Always 0 for flat searches.
	Segment int
	// DimsProcessed is the number of columns read so far (the paper's m).
	DimsProcessed int
	// Candidates is the candidate-set size after pruning at this step. In
	// a segment searched under a carried κ (see SearchOneScratch) it may be
	// below K, or zero: the segment holds nothing that can still rank.
	Candidates int
	// Pruned is the number of vectors removed at this step.
	Pruned int
	// Skipped reports that the pruning attempt was skipped as futile
	// (Section 5.2); Candidates then carries over unchanged.
	Skipped bool
}

// Stats describes the work a search performed.
type Stats struct {
	// Steps has one entry per pruning iteration.
	Steps []StepStat
	// ValuesScanned counts column cells read.
	ValuesScanned int64
	// DimsUntilK is the number of dimensions processed when the candidate
	// set first shrank to at most K (0 if it never did). The paper reports
	// this as the point after which the remaining tables "need not be
	// accessed at all" for pruning. Merged over segments it is the largest
	// per-segment value.
	DimsUntilK int
	// FinalCandidates is the candidate-set size when pruning stopped,
	// summed over segments. A segment searched under a carried κ may
	// contribute fewer than K, or none.
	FinalCandidates int
	// SegmentsSearched counts segments whose columns were actually read.
	// Single-source searches report 1.
	SegmentsSearched int
	// SegmentsSkipped counts segments dismissed wholesale because their
	// min/max-per-dimension synopsis proved no member could beat the
	// running k-th best score.
	SegmentsSkipped int
}

// Result is a completed search: the k best matches (exact scores, best
// first) and the work statistics.
type Result struct {
	Results []topk.Result
	Stats   Stats
}

// Errors returned by option validation.
var (
	ErrBadK           = errors.New("core: K must be >= 1")
	ErrWeightMismatch = errors.New("core: weights length must equal store dimensionality")
	ErrWeightMetric   = errors.New("core: weights require criterion Eq, Ev, or Hq")
	ErrQueryMismatch  = errors.New("core: query length must equal store dimensionality")
	ErrBadDims        = errors.New("core: Dims entries must be unique and within range")
	ErrNoCandidates   = errors.New("core: no live vectors to search")
	ErrDataRange      = errors.New("core: stored data outside the range the pruning bounds assume")
	ErrQueryRange     = errors.New("core: query would make a score non-finite")
)

func (o *Options) validate(s meta, q []float64) error {
	lo, hi := 0.0, 0.0
	if s.Len() > 0 {
		lo, hi = s.ValueRange()
	}
	return o.validateShape(s.Dims(), s.Len(), lo, hi, q)
}

// validateShape is validate over an explicit collection shape — the form
// the segment planner calls so the aggregate description need not be
// boxed into the meta interface on the query hot path.
func (o *Options) validateShape(dims, slots int, lo, hi float64, q []float64) error {
	if o.K < 1 {
		return ErrBadK
	}
	if len(q) != dims {
		return fmt.Errorf("%w: query %d, store %d", ErrQueryMismatch, len(q), dims)
	}
	if len(o.Weights) > 0 {
		if o.Criterion == Hh {
			return ErrWeightMetric
		}
		if len(o.Weights) != dims {
			return fmt.Errorf("%w: weights %d, store %d", ErrWeightMismatch, len(o.Weights), dims)
		}
		for _, w := range o.Weights {
			if w < 0 {
				return fmt.Errorf("%w: negative weight", ErrWeightMismatch)
			}
		}
	}
	if len(o.Dims) > 0 {
		// A bitset, on the stack up to 512 dimensions: subspace queries are
		// validated on the query hot path.
		var small [8]uint64
		seen := small[:]
		if dims > 64*len(small) {
			seen = make([]uint64, (dims+63)/64)
		}
		for _, d := range o.Dims {
			if d < 0 || d >= dims || seen[d/64]&(1<<uint(d%64)) != 0 {
				return fmt.Errorf("%w: dim %d", ErrBadDims, d)
			}
			seen[d/64] |= 1 << uint(d%64)
		}
	}
	if err := o.checkQueryRange(q, lo, hi); err != nil {
		return err
	}
	if o.Step == 0 {
		o.Step = DefaultStep
	}
	if o.Step < 1 {
		return fmt.Errorf("core: Step must be >= 1, got %d", o.Step)
	}
	if slots > 0 {
		if o.Criterion.Distance() {
			// Lemma 1 / Eq. 10 place adversarial mass at coordinate 1 and
			// floor candidates at 0: data must lie in the unit hyper-box.
			if lo < 0 || hi > 1 {
				return fmt.Errorf("%w: Euclidean criteria need values in [0,1], store holds [%v, %v]",
					ErrDataRange, lo, hi)
			}
		} else if lo < 0 {
			// Histogram intersection's zero lower bound needs h ≥ 0.
			return fmt.Errorf("%w: histogram criteria need non-negative values, store holds minimum %v",
				ErrDataRange, lo)
		}
	}
	return nil
}

// checkQueryRange rejects a query for which some score could be
// non-finite: +Inf is the engine's "no candidate" sentinel, so a live
// vector scoring it would silently vanish from the answer. Every query
// coordinate and weight must be finite, and the sum over the scored
// dimensions of a bound on each term's magnitude, taken over the stored
// value range [lo, hi], must be finite too:
//
//	Eq, Ev:  w·max(q − lo, hi − q)²
//	Hq, Hh:  w·max(|min(q, lo)|, |min(q, hi)|)
//
// (w = 1 for unweighted queries). Summing magnitudes keeps every partial
// sum finite, whatever order the engine adds the terms in.
func (o *Options) checkQueryRange(q []float64, lo, hi float64) error {
	for d, x := range q {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: query coordinate %d is %v", ErrQueryRange, d, x)
		}
	}
	for d, w := range o.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weight %d is %v", ErrQueryRange, d, w)
		}
	}
	sum := 0.0
	add := func(d int) {
		w := 1.0
		if len(o.Weights) > 0 {
			if w = o.Weights[d]; w == 0 {
				return
			}
		}
		if o.Criterion.Distance() {
			m := max(q[d]-lo, hi-q[d])
			sum += w * m * m
		} else {
			sum += w * max(math.Abs(min(q[d], lo)), math.Abs(min(q[d], hi)))
		}
	}
	if len(o.Dims) > 0 {
		for _, d := range o.Dims {
			add(d)
		}
	} else {
		for d := range q {
			add(d)
		}
	}
	if math.IsInf(sum, 0) || math.IsNaN(sum) {
		return fmt.Errorf("%w: the %v score of a vector in [%v, %v] can overflow for this query",
			ErrQueryRange, o.Criterion, lo, hi)
	}
	return nil
}

package core

import (
	"fmt"
	"math"

	"bond/internal/bitmap"
	"bond/internal/topk"
)

// SegmentView is one physical segment of a segmented collection as the
// search layer sees it: a Source holding the segment's columns (addressed
// by local ids 0…len−1), the global id of local id 0, and an optional
// per-dimension min/max synopsis.
//
// Lo[d] and Hi[d] bound every coefficient of dimension d; they are live
// views of the segment's own synopsis, not copies. A store observes every
// dimension of each vector it appends, so a synopsis bounds all dimensions
// or, before any value was observed, none: every dimension then reads +Inf,
// −Inf. When they are non-nil, the plan executor uses them to bound the
// best score any member of the segment could reach and skips the segment
// wholesale whenever that bound cannot beat the running k-th best (κ). Nil
// slices only disable skipping; results stay exact either way.
type SegmentView struct {
	Src    Source
	Base   int
	Lo, Hi []float64
}

// viewsMeta aggregates segment views into the shape option validation
// needs.
type viewsMeta struct {
	dims, n int
	lo, hi  float64
}

func (m viewsMeta) Dims() int                      { return m.dims }
func (m viewsMeta) Len() int                       { return m.n }
func (m viewsMeta) ValueRange() (float64, float64) { return m.lo, m.hi }

// aggregateViews aggregates the n views view(0)…view(n−1).
func aggregateViews(n int, view func(int) *SegmentView) (viewsMeta, error) {
	if n == 0 {
		return viewsMeta{}, fmt.Errorf("core: no segment views")
	}
	m := viewsMeta{dims: view(0).Src.Dims(), lo: math.Inf(1), hi: math.Inf(-1)}
	for i := 0; i < n; i++ {
		v := view(i)
		if v.Src.Dims() != m.dims {
			return viewsMeta{}, fmt.Errorf("core: segment %d has %d dims, segment 0 has %d",
				i, v.Src.Dims(), m.dims)
		}
		if v.Base != m.n {
			return viewsMeta{}, fmt.Errorf("core: segment %d base %d, want %d (views must be dense and ordered)",
				i, v.Base, m.n)
		}
		m.n += v.Src.Len()
		lo, hi := v.Src.ValueRange()
		m.lo = min(m.lo, lo)
		m.hi = max(m.hi, hi)
	}
	return m, nil
}

// LocalExclude projects the [base, base+n) window of a global exclusion
// bitmap onto segment-local ids. It returns nil when nothing is excluded.
// Ids beyond the bitmap's length are not excluded: a bitmap sized to an
// earlier Len stays valid after appends (the documented concurrency
// contract lets a writer grow the collection between NewExclusion and
// Search).
func LocalExclude(global *bitmap.Bitmap, base, n int) *bitmap.Bitmap {
	if global == nil {
		return nil
	}
	var local *bitmap.Bitmap
	for i := 0; i < n && base+i < global.Len(); i++ {
		if global.Get(base + i) {
			if local == nil {
				local = bitmap.New(n)
			}
			local.Set(i)
		}
	}
	return local
}

// SegBound adds to acc the synopsis-bound terms of the dimensions ds, in
// order, and returns the sum. Over all of a query's effective dimensions
// (Dims, or every dimension, less the zero weights — the ones
// buildOrderInto keeps) from acc = 0, that is the best score any vector
// inside the segment could possibly reach: an upper bound on similarity for
// the histogram criteria, a lower bound on distance for the Euclidean ones.
// The view must carry a synopsis (non-nil Lo/Hi).
//
// A bound may be summed in pieces, each call passing the previous sum as
// acc: the terms are added in the same order either way, and each is rounded
// before it is added (the float64 conversions forbid a fused multiply-add),
// so the bound — and with it every skip decision — is the same bits
// however it was split. A distance term is never negative and rounding is
// monotone, so a distance prefix never exceeds the whole: a prefix that
// already loses to κ proves the segment hopeless. No term has a
// data-dependent branch.
func SegBound(v *SegmentView, q []float64, opts *Options, ds []int32, acc float64) float64 {
	lo, hi, w := v.Lo, v.Hi, opts.Weights
	switch dist := opts.Criterion.Distance(); {
	case dist && len(w) == 0:
		for _, d := range ds {
			gap := boxGap(lo[d], hi[d], q[d])
			acc += float64(gap * gap)
		}
	case len(w) == 0:
		for _, d := range ds {
			acc += min(q[d], hi[d])
		}
	default:
		for _, d := range ds {
			acc += boundTerm(dist, w[d], lo[d], hi[d], q[d])
		}
	}
	return acc
}

// boundTerm is one dimension's best-case contribution to a segment bound:
// the weighted squared distance from q to the closest point of [lo, hi], or
// the weighted min(h, q) capped by the segment's largest value.
func boundTerm(dist bool, w, lo, hi, q float64) float64 {
	if dist {
		gap := boxGap(lo, hi, q)
		return float64(w * gap * gap)
	}
	return float64(w * min(q, hi))
}

// boxGap is the distance from q to the closest point of [lo, hi], lo ≤ hi:
// max(lo−q, q−hi, 0), taken on the bit patterns. A float's sign bit is its
// pattern's too and non-negative floats order as their patterns do, so —
// at most one of the two differences being positive — the integer max is
// the float max; it compiles to two conditional moves where the float max
// compiles to a dozen instructions and the plain comparison to a branch the
// predictor loses on every other cell.
func boxGap(lo, hi, q float64) float64 {
	below, above := math.Float64bits(lo-q), math.Float64bits(q-hi)
	return math.Float64frombits(uint64(max(int64(below), int64(above), 0)))
}

// CannotBeat reports whether a segment whose best possible score is bound
// has no chance against the current κ. The comparison is strict: a segment
// that could only tie κ is still searched, so id tie-breaks stay identical
// to a single flat search.
func CannotBeat(bound, kappa float64, distance bool) bool {
	if distance {
		return bound > kappa
	}
	return bound < kappa
}

// SearchOneScratch runs the BOND engine over a single segment without
// re-validating (callers validate once via ValidateSegments and Init qs
// with the validated options — or InitExact, which makes the run an exact
// scan), on pooled scratch buffers (nil allocates privately). exclude is
// the segment-local exclusion bitmap, or nil. kappa, when hasKappa, is the
// carried κ: an exact k-th best score found in other segments, under which
// this one may be pruned to an empty result (it still counts as searched).
// empty is true when the segment held no eligible candidate to begin with.
// The result list and step log alias the scratch and are valid until its
// next search.
func SearchOneScratch(src Source, qs *Query, exclude *bitmap.Bitmap, kappa float64, hasKappa bool, sc *Scratch) (res Result, empty bool) {
	e := newEngine(src, qs, exclude, kappa, hasKappa, sc)
	if e == nil {
		return Result{}, true
	}
	e.run()
	return e.finish(), false
}

// RebaseInPlace shifts segment-local result ids to global ids by mutating
// the list, which the caller must consume before its scratch is reused.
func RebaseInPlace(rs []topk.Result, base int) []topk.Result {
	if base == 0 {
		return rs
	}
	for i := range rs {
		rs[i].ID += base
	}
	return rs
}

// ValidateSegments aggregates the n views view(0)…view(n−1) and validates
// the options against the combined collection, applying option defaults in
// place. Planners that execute segments through the per-segment primitives
// below must call this once before running them.
func ValidateSegments(n int, view func(int) *SegmentView, q []float64, opts *Options) error {
	m, err := aggregateViews(n, view)
	if err != nil {
		return err
	}
	lo, hi := 0.0, 0.0
	if m.n > 0 {
		lo, hi = m.lo, m.hi
	}
	return opts.validateShape(m.dims, m.n, lo, hi, q)
}

// mergeStats folds one segment's work statistics into the aggregate.
// Steps are concatenated in processing order, tagged with the segment
// index they ran in; DimsUntilK keeps the worst (largest) per-segment
// value.
func mergeStats(dst *Stats, src Stats, segment int) {
	dst.ValuesScanned += src.ValuesScanned
	dst.FinalCandidates += src.FinalCandidates
	for _, st := range src.Steps {
		st.Segment = segment
		dst.Steps = append(dst.Steps, st)
	}
	if src.DimsUntilK > dst.DimsUntilK {
		dst.DimsUntilK = src.DimsUntilK
	}
}

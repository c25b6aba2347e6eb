// Package multifeature implements complex (multi-feature) k-NN queries
// over several vertically decomposed feature collections (Section 8.2).
//
// A multi-feature query asks, e.g., for images similar to image A in color
// and to image B in texture: each feature collection stores one vector per
// object, and the global similarity is a monotone aggregate of the
// per-feature similarities (a weighted average, or a fuzzy-logic min/max).
//
// Because every feature collection is vertically fragmented, BOND can
// integrate the per-feature ranking and the merging step: it processes the
// union of all features' dimensions in one branch-and-bound loop
// ("synchronized search"), bounding the global score of every object by
// aggregating the per-feature partial scores and tail bounds. The paper
// found this 20 % faster than stream merging for the average aggregate and
// 70 % faster for min (Section 8.2); package streammerge provides that
// comparator.
//
// A feature may be backed by a flat store (Store) or by the segments of a
// segmented collection (Segments). Candidates stay ordered by global id
// throughout the loop, so segmented column access advances a cursor over
// the segment boundaries instead of copying columns together.
package multifeature

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bond/internal/core"
	"bond/internal/metric"
	"bond/internal/topk"
)

// FeatureMetric selects the similarity metric of one query component —
// Section 8.2 explicitly supports "queries having different similarity
// metrics for each component, provided that the global similarity is well
// defined from the merging of the individual ones".
type FeatureMetric int

const (
	// MetricHistogram scores a component by histogram intersection
	// (Definition 1). The default.
	MetricHistogram FeatureMetric = iota
	// MetricEuclidean scores a component by the Euclidean similarity of
	// Equation 3: Sim = 1 − sqrt(δ/N), so all components share the [0, 1]
	// similarity scale and any monotone aggregate applies.
	MetricEuclidean
)

// String names the metric.
func (m FeatureMetric) String() string {
	switch m {
	case MetricHistogram:
		return "histogram"
	case MetricEuclidean:
		return "euclidean"
	}
	return fmt.Sprintf("FeatureMetric(%d)", int(m))
}

// Feature is one component of a multi-feature query: a decomposed
// collection, the query vector for it, its weight in the aggregate, and
// its similarity metric.
//
// The collection is given either as a single flat Store or as the ordered
// Segments of a segmented collection; Segments wins when both are set.
type Feature struct {
	Store    core.Source
	Segments []core.SegmentView
	Query    []float64
	Weight   float64
	Metric   FeatureMetric
}

// Views returns the feature's storage as segment views (a flat Store
// becomes a single view at base 0).
func (f Feature) Views() []core.SegmentView {
	if len(f.Segments) > 0 {
		return f.Segments
	}
	if f.Store == nil {
		return nil
	}
	return []core.SegmentView{{Src: f.Store}}
}

// Len returns the number of object slots the feature covers.
func (f Feature) Len() int {
	n := 0
	for _, v := range f.Views() {
		n += v.Src.Len()
	}
	return n
}

// Dims returns the feature's dimensionality (0 when no storage is set).
func (f Feature) Dims() int {
	views := f.Views()
	if len(views) == 0 {
		return 0
	}
	return views[0].Src.Dims()
}

// Aggregate combines per-feature similarities into a global score.
// All supported aggregates are monotone, the property BOND's bound
// aggregation relies on.
type Aggregate int

const (
	// WeightedAvg is Σ w_f · s_f / Σ w_f (arithmetic aggregate [9]).
	WeightedAvg Aggregate = iota
	// MinAgg is the fuzzy-logic conjunction min_f s_f [7, 15].
	MinAgg
	// MaxAgg is the fuzzy-logic disjunction max_f s_f.
	MaxAgg
)

// String names the aggregate.
func (a Aggregate) String() string {
	switch a {
	case WeightedAvg:
		return "avg"
	case MinAgg:
		return "min"
	case MaxAgg:
		return "max"
	}
	return fmt.Sprintf("Aggregate(%d)", int(a))
}

// Combine applies the aggregate to per-feature scores.
func (a Aggregate) Combine(scores, weights []float64) float64 {
	switch a {
	case WeightedAvg:
		var s, w float64
		for f, x := range scores {
			s += weights[f] * x
			w += weights[f]
		}
		if w == 0 {
			return 0
		}
		return s / w
	case MinAgg:
		m := math.Inf(1)
		for _, x := range scores {
			if x < m {
				m = x
			}
		}
		return m
	case MaxAgg:
		m := math.Inf(-1)
		for _, x := range scores {
			if x > m {
				m = x
			}
		}
		return m
	}
	panic(fmt.Sprintf("multifeature: unknown aggregate %d", int(a)))
}

// Options configures a synchronized multi-feature search.
type Options struct {
	// K is the number of results. Required, ≥ 1.
	K int
	// Agg selects the aggregate. Default WeightedAvg.
	Agg Aggregate
	// Step is the pruning granularity over the union of all features'
	// dimensions. Default 8.
	Step int
}

// Stats describes the work performed.
type Stats struct {
	ValuesScanned   int64
	Steps           []StepStat
	FinalCandidates int
}

// StepStat records one pruning iteration.
type StepStat struct {
	DimsProcessed int
	Candidates    int
}

// Result is a completed multi-feature search.
type Result struct {
	Results []topk.Result
	Stats   Stats
}

// Validation errors.
var (
	ErrNoFeatures   = errors.New("multifeature: at least one feature required")
	ErrSizeMismatch = errors.New("multifeature: all feature stores must hold the same objects")
	ErrBadOptions   = errors.New("multifeature: invalid options")
)

func validate(features []Feature, opts *Options) error {
	if len(features) == 0 {
		return ErrNoFeatures
	}
	n := features[0].Len()
	for i, f := range features {
		if len(f.Views()) == 0 {
			return fmt.Errorf("%w: feature %d has no storage", ErrBadOptions, i)
		}
		if f.Len() != n {
			return fmt.Errorf("%w: feature %d has %d objects, want %d", ErrSizeMismatch, i, f.Len(), n)
		}
		if len(f.Query) != f.Dims() {
			return fmt.Errorf("%w: feature %d query dims %d != store dims %d", ErrBadOptions, i, len(f.Query), f.Dims())
		}
		if f.Weight < 0 {
			return fmt.Errorf("%w: feature %d has negative weight", ErrBadOptions, i)
		}
		base := 0
		for vi, v := range f.Views() {
			if v.Base != base {
				return fmt.Errorf("%w: feature %d segment %d base %d, want %d", ErrBadOptions, i, vi, v.Base, base)
			}
			base += v.Src.Len()
		}
	}
	if opts.K < 1 {
		return fmt.Errorf("%w: K must be >= 1", ErrBadOptions)
	}
	if opts.Step == 0 {
		opts.Step = 8
	}
	if opts.Step < 1 {
		return fmt.Errorf("%w: Step must be >= 1", ErrBadOptions)
	}
	return nil
}

// dimRef addresses one dimension of one feature in the merged order.
type dimRef struct {
	feature int
	dim     int
}

// featData caches one feature's segment layout for cursor-based access.
type featData struct {
	views []core.SegmentView
	ends  []int // ends[i] = views[i].Base + views[i].Src.Len()
}

func layout(f Feature) featData {
	views := f.Views()
	fd := featData{views: views, ends: make([]int, len(views))}
	for i, v := range views {
		fd.ends[i] = v.Base + v.Src.Len()
	}
	return fd
}

// forEachValue streams dimension d's value for every candidate id (ids
// must be ascending — the search loop's standing invariant), advancing a
// segment cursor instead of materializing a global column.
func (fd featData) forEachValue(d int, cands []int, fn func(ci int, v float64)) {
	si := 0
	var col []float64
	for ci, id := range cands {
		for id >= fd.ends[si] {
			si++
			col = nil
		}
		if col == nil {
			col = fd.views[si].Src.Column(d)
		}
		fn(ci, col[id-fd.views[si].Base])
	}
}

// value performs one random access to dimension d of object id.
func (fd featData) value(d, id int) float64 {
	si := sort.Search(len(fd.ends), func(i int) bool { return id < fd.ends[i] })
	return fd.views[si].Src.Column(d)[id-fd.views[si].Base]
}

// deletedUnion marks every object deleted in at least one feature.
func deletedUnion(features []Feature, n int) []bool {
	deleted := make([]bool, n)
	for _, f := range features {
		for _, v := range f.Views() {
			base := v.Base
			v.Src.DeletedBitmap().ForEach(func(local int) { deleted[base+local] = true })
		}
	}
	return deleted
}

// Search runs synchronized BOND over all features with the Hq
// (histogram-intersection, query-only) bounds per feature, aggregating the
// per-feature bounds into global score bounds. It returns the exact global
// top-k (ties break toward smaller id).
func Search(features []Feature, opts Options) (Result, error) {
	if err := validate(features, &opts); err != nil {
		return Result{}, err
	}
	nf := len(features)
	n := features[0].Len()
	k := opts.K
	if k > n {
		k = n
	}
	weights := make([]float64, nf)
	feats := make([]featData, nf)
	for f := range features {
		weights[f] = features[f].Weight
		feats[f] = layout(features[f])
	}

	// Merged processing order: all (feature, dim) pairs by decreasing
	// weight-normalized maximal contribution (Section 8.2). Histogram
	// dimensions can contribute at most q to the similarity; Euclidean
	// dimensions at most max(q, 1−q)²/N of squared-distance mass.
	dimKey := func(f, d int) float64 {
		q := features[f].Query[d]
		if features[f].Metric == MetricEuclidean {
			m := q
			if 1-q > m {
				m = 1 - q
			}
			return weights[f] * m * m / float64(features[f].Dims())
		}
		return weights[f] * q
	}
	var order []dimRef
	for f := range features {
		for d := range features[f].Query {
			order = append(order, dimRef{f, d})
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return dimKey(a.feature, a.dim) > dimKey(b.feature, b.dim)
	})

	// Remaining tail bound per feature: Σ q over unprocessed dimensions
	// for histogram components (the Hq bound), Σ max(q, 1−q)² for
	// Euclidean components (the Eq. 10 worst-corner bound).
	tailQ := make([]float64, nf)
	for f := range features {
		for _, qv := range features[f].Query {
			if features[f].Metric == MetricEuclidean {
				m := qv
				if 1-qv > m {
					m = 1 - qv
				}
				tailQ[f] += m * m
			} else {
				tailQ[f] += qv
			}
		}
	}

	cands := make([]int, 0, n)
	deleted := deletedUnion(features, n)
	for id := 0; id < n; id++ {
		if !deleted[id] {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return Result{}, fmt.Errorf("%w: no live objects", ErrBadOptions)
	}
	if k > len(cands) {
		k = len(cands)
	}

	// scores[f][ci]: partial per-feature similarity of candidate ci.
	scores := make([][]float64, nf)
	for f := range scores {
		scores[f] = make([]float64, len(cands))
	}

	var stats Stats
	perFeature := make([]float64, nf) // scratch for Combine
	scratch2 := make([]float64, nf)

	// simBounds converts a component's partial score and remaining tail
	// bound into similarity-scale lower/upper bounds. The maintained tail
	// mass can drift an ulp below zero once every dimension of a feature
	// is processed; it is floored at 0 so the Euclidean square root stays
	// real and the histogram upper bound stays conservative.
	simBounds := func(f int, s float64) (lo, hi float64) {
		t := tailQ[f]
		if t < 0 {
			t = 0
		}
		if features[f].Metric == MetricEuclidean {
			n := features[f].Dims()
			return metric.EuclideanSim(s+t, n), metric.EuclideanSim(s, n)
		}
		return s, s + t
	}
	simFinal := func(f int, s float64) float64 {
		if features[f].Metric == MetricEuclidean {
			return metric.EuclideanSim(s, features[f].Dims())
		}
		return s
	}
	total := len(order)
	for processed := 0; processed < total; {
		next := processed + opts.Step
		if next > total {
			next = total
		}
		for _, ref := range order[processed:next] {
			qd := features[ref.feature].Query[ref.dim]
			sf := scores[ref.feature]
			if features[ref.feature].Metric == MetricEuclidean {
				feats[ref.feature].forEachValue(ref.dim, cands, func(ci int, v float64) {
					diff := v - qd
					sf[ci] += diff * diff
				})
				m := qd
				if 1-qd > m {
					m = 1 - qd
				}
				tailQ[ref.feature] -= m * m
			} else {
				feats[ref.feature].forEachValue(ref.dim, cands, func(ci int, v float64) {
					if v < qd {
						sf[ci] += v
					} else {
						sf[ci] += qd
					}
				})
				tailQ[ref.feature] -= qd
			}
			stats.ValuesScanned += int64(len(cands))
		}
		processed = next
		if processed >= total || len(cands) <= k {
			continue
		}

		// Global bounds: lower = agg of per-feature partials (tails ≥ 0),
		// upper = agg of partials + per-feature query tail mass.
		lower := make([]float64, len(cands))
		upper := make([]float64, len(cands))
		for ci := range cands {
			for f := 0; f < nf; f++ {
				perFeature[f], scratch2[f] = simBounds(f, scores[f][ci])
			}
			lower[ci] = opts.Agg.Combine(perFeature, weights)
			upper[ci] = opts.Agg.Combine(scratch2, weights)
		}
		kappa, _ := topk.KthLargest(lower, k, nil)
		out := 0
		for ci := range cands {
			if upper[ci] >= kappa {
				cands[out] = cands[ci]
				for f := 0; f < nf; f++ {
					scores[f][out] = scores[f][ci]
				}
				out++
			}
		}
		cands = cands[:out]
		for f := range scores {
			scores[f] = scores[f][:out]
		}
		stats.Steps = append(stats.Steps, StepStat{DimsProcessed: processed, Candidates: out})
	}
	stats.FinalCandidates = len(cands)

	h := topk.NewLargest(k)
	for ci, id := range cands {
		for f := 0; f < nf; f++ {
			perFeature[f] = simFinal(f, scores[f][ci])
		}
		h.Push(id, opts.Agg.Combine(perFeature, weights))
	}
	return Result{Results: h.Results(), Stats: stats}, nil
}

// ExactGlobal computes the exact global similarity of object id — the
// random-access primitive stream merging needs and the reference for tests.
func ExactGlobal(features []Feature, agg Aggregate, id int) float64 {
	scores := make([]float64, len(features))
	weights := make([]float64, len(features))
	for f, feat := range features {
		weights[f] = feat.Weight
		fd := layout(feat)
		s := 0.0
		if feat.Metric == MetricEuclidean {
			for d, qd := range feat.Query {
				diff := fd.value(d, id) - qd
				s += diff * diff
			}
			s = metric.EuclideanSim(s, feat.Dims())
		} else {
			for d, qd := range feat.Query {
				v := fd.value(d, id)
				if v < qd {
					s += v
				} else {
					s += qd
				}
			}
		}
		scores[f] = s
	}
	return agg.Combine(scores, weights)
}

// ExactGlobalBatch computes exact global similarities for many objects at
// once, iterating column-wise per feature so the accesses stay sequential
// within each dimension table. The ids may be in any order.
func ExactGlobalBatch(features []Feature, agg Aggregate, ids []int) []float64 {
	nf := len(features)
	weights := make([]float64, nf)
	perFeature := make([][]float64, nf)
	for f, feat := range features {
		weights[f] = feat.Weight
		fd := layout(feat)
		// Pre-resolve each id's segment once; reused for every dimension.
		segOf := make([]int, len(ids))
		for i, id := range ids {
			segOf[i] = sort.Search(len(fd.ends), func(s int) bool { return id < fd.ends[s] })
		}
		acc := make([]float64, len(ids))
		euc := feat.Metric == MetricEuclidean
		for d := 0; d < feat.Dims(); d++ {
			qd := feat.Query[d]
			for i, id := range ids {
				v := fd.views[segOf[i]].Src.Column(d)[id-fd.views[segOf[i]].Base]
				if euc {
					diff := v - qd
					acc[i] += diff * diff
				} else if v < qd {
					acc[i] += v
				} else {
					acc[i] += qd
				}
			}
		}
		if euc {
			for i := range acc {
				acc[i] = metric.EuclideanSim(acc[i], feat.Dims())
			}
		}
		perFeature[f] = acc
	}
	out := make([]float64, len(ids))
	scratch := make([]float64, nf)
	for i := range ids {
		for f := 0; f < nf; f++ {
			scratch[f] = perFeature[f][i]
		}
		out[i] = agg.Combine(scratch, weights)
	}
	return out
}

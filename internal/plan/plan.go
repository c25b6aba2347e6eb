package plan

import (
	"fmt"
	"math"
	"slices"

	"bond/internal/core"
)

// Path is the access path a plan step assigns to one segment.
type Path int

const (
	// PathBOND is the branch-and-bound scan over the exact columns.
	PathBOND Path = iota
	// PathCompressed is the 8-bit filter-and-refine scan.
	PathCompressed
	// PathVAFile is the VA-File filter over row-major codes plus exact
	// refinement.
	PathVAFile
	// PathExact is a full exact scan (the seqscan oracle per segment).
	PathExact
)

// String names the path as EXPLAIN prints it.
func (p Path) String() string {
	switch p {
	case PathBOND:
		return "bond"
	case PathCompressed:
		return "compressed"
	case PathVAFile:
		return "vafile"
	case PathExact:
		return "exact"
	}
	return fmt.Sprintf("Path(%d)", int(p))
}

// Step is one per-segment entry of a plan, in execution order. The
// planner fills the prediction fields; the executor fills the outcome.
type Step struct {
	// Segment is the physical segment index (position in the store).
	Segment int
	// Base is the global id of the segment's local id 0; N its slot count.
	Base, N int
	// Sealed marks immutable segments.
	Sealed bool
	// Path is the chosen access path.
	Path Path
	// Parallel marks the step as part of the fan-out group the executor
	// runs concurrently before the sequential tail.
	Parallel bool
	// Bound is the synopsis bound — the best score any member could
	// reach; HasBound is false when the segment has no usable synopsis.
	Bound    float64
	HasBound bool
	// PredCost is the predicted cost in coefficient-equivalents.
	PredCost float64

	// Executed reports that the step ran; Skipped that the synopsis
	// dismissed the segment at run time (κ already unbeatable).
	Executed bool
	Skipped  bool
	// ActualCost is the measured cost in coefficient-equivalents.
	ActualCost float64
	// Candidates is the number of vectors surviving the step's filter
	// (compressed/VA paths) or final BOND candidate set, which a carried
	// κ can take below K, to zero.
	Candidates int
	// Kappa is the κ a sequential step met (tolerance applied): the k-th
	// best score the steps before it had established. A step whose Bound
	// cannot beat it is skipped; a BOND step that runs carries it into
	// its pruning. HasKappa is false while fewer than K results exist,
	// and for the parallel group, which starts before any do.
	Kappa    float64
	HasKappa bool
}

// Plan is a planned query: the validated spec and the ordered per-segment
// steps. Execute runs it; Explain renders it.
type Plan struct {
	Spec Spec
	// Opts is the validated, default-filled engine options.
	Opts core.Options
	// Steps is the per-segment plan in execution order (parallel group
	// first, then sequential best-bound-first so κ tightens fast).
	Steps []Step
	// Dims and Slots describe the planned collection.
	Dims, Slots int
	// Truncated reports that the deadline stopped execution early.
	Truncated bool

	segs []Segment
	pool *Pool

	// views is the validation staging buffer and keys the step-ordering
	// one, both kept for reuse on pooled plans.
	views []core.SegmentView
	keys  []stepKey

	// pooled marks a plan owned by the pool's free list (Release returns
	// it there).
	pooled bool

	// cur is the execution state (see cursor), made by the first begin and
	// kept across init and Release, so a pooled plan executes
	// allocation-free.
	cur *cursor
}

// parallelMinSegment is the smallest segment Auto fans out when the spec
// carries a parallelism hint — below this, goroutine overhead dominates.
const parallelMinSegment = 2048

// New plans a query over the given segments. The spec is validated (and
// defaults filled) against the combined collection, exactly as core.Search
// validates options against a flat one. pool may be nil, which gives the
// plan a pool of its own.
func New(segs []Segment, spec Spec, pool *Pool) (*Plan, error) {
	p := &Plan{}
	if err := p.init(segs, spec, pool); err != nil {
		return nil, err
	}
	return p, nil
}

// NewReusable is New planning into a Plan taken from pool: when
// the caller is done (after Execute, and after copying anything it wants
// to keep), Release returns the plan to the pool. This is the hot-path
// variant Collection.Query uses so planning itself allocates nothing in
// steady state; callers that hand the plan out (EXPLAIN) use New instead.
func NewReusable(segs []Segment, spec Spec, pool *Pool) (*Plan, error) {
	if pool == nil {
		return New(segs, spec, pool)
	}
	p := pool.acquirePlan()
	if err := p.init(segs, spec, pool); err != nil {
		pool.releasePlan(p)
		return nil, err
	}
	return p, nil
}

// Release returns a plan obtained from NewReusable to its pool. The
// pooled plan keeps its buffers (steps, views, keys, the cursor's engine
// state, κ heap and step log) and no reference to the caller's spec,
// segments or results. It is a no-op for plans made by New.
func (p *Plan) Release() {
	if !p.pooled {
		return
	}
	pool := p.pool
	if p.cur != nil {
		p.cur.reset()
	}
	*p = Plan{
		Steps:  p.Steps[:0],
		views:  p.views[:0],
		keys:   p.keys[:0],
		pooled: true,
		cur:    p.cur,
	}
	pool.releasePlan(p)
}

// init (re)plans into p, reusing its step, view and key buffers.
func (p *Plan) init(segs []Segment, spec Spec, pool *Pool) error {
	views := p.views[:0]
	if cap(views) < len(segs) {
		views = make([]core.SegmentView, 0, len(segs))
	}
	for _, s := range segs {
		views = append(views, s.View)
	}
	p.views = views
	opts := spec.options()
	if err := core.ValidateSegments(views, spec.Query, &opts); err != nil {
		return err
	}
	if math.IsNaN(spec.Tolerance) || math.IsInf(spec.Tolerance, 0) {
		return fmt.Errorf("%w: tolerance is %v", core.ErrQueryRange, spec.Tolerance)
	}
	if spec.Strategy == ForceCompressed || spec.Strategy == ForceVAFile {
		if err := core.ValidateCompressed(opts); err != nil {
			return err
		}
	}
	if pool == nil {
		pool = new(Pool)
	}
	pooled := p.pooled
	*p = Plan{
		Spec:   spec,
		Opts:   opts,
		Steps:  p.Steps[:0],
		Dims:   views[0].Src.Dims(),
		segs:   segs,
		pool:   pool,
		views:  views,
		keys:   p.keys,
		pooled: pooled,
		cur:    p.cur,
	}
	dist := opts.Criterion.Distance()
	queryMass := effectiveQueryMass(spec.Query, opts)
	fill := func(st *Step, i, n int, bound float64, hasBound bool) {
		s := &segs[i]
		*st = Step{Segment: i, Base: s.View.Base, N: n, Sealed: s.Sealed, Bound: bound, HasBound: hasBound}
		shape := shapeFactor(bound, hasBound, dist, queryMass)
		st.Path, st.PredCost = choosePath(spec.Strategy, s, n, p.Dims, shape)
		st.Parallel = spec.Parallel >= 2 && st.Path == PathBOND &&
			(spec.Strategy == ForceBOND || n >= parallelMinSegment)
	}

	// Execution order: the parallel fan-out group first (in segment order —
	// it all runs concurrently anyway, and the early answers seed κ for the
	// sequential tail), then the sequential steps with unbounded segments
	// first (they must be searched regardless) followed by bounded ones
	// best-first, so κ tightens as fast as possible and later segments can
	// be skipped. The order is settled on 16-byte keys — class, bound with
	// the direction folded into its sign, segment index as the tie-break,
	// which makes it the total order a stable sort by class and bound gives
	// — and each Step is then written once, in its final place.
	keys := p.keys[:0]
	for i := range segs {
		v := &segs[i].View
		n := v.Src.Len()
		if n == 0 {
			continue
		}
		p.Slots += n
		bound, ok := core.SegBound(v, spec.Query, &p.Opts)
		k := stepKey{bound: bound, seg: int32(i), class: classUnbounded, hasBound: ok}
		if !dist {
			k.bound = -bound
		}
		if ok {
			k.class = classBounded
		}
		if spec.Parallel >= 2 {
			var st Step
			if fill(&st, i, n, bound, ok); st.Parallel {
				k.class = classParallel
			}
		}
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpStepKey)
	p.Steps = slices.Grow(p.Steps, len(keys))[:len(keys)]
	for j, k := range keys {
		bound := k.bound
		if !dist {
			bound = -bound
		}
		fill(&p.Steps[j], int(k.seg), segs[k.seg].View.Src.Len(), bound, k.hasBound)
	}
	p.keys = keys
	return nil
}

// stepKey is what the planner sorts in place of a Step.
type stepKey struct {
	bound float64 // ascending: the synopsis bound, negated for similarities
	seg   int32
	class stepClass
	// hasBound is kept beside class because a parallel step may have one.
	hasBound bool
}

type stepClass uint8

const (
	classParallel stepClass = iota
	classUnbounded
	classBounded
)

func cmpStepKey(a, b stepKey) int {
	switch {
	case a.class != b.class:
		return int(a.class) - int(b.class)
	case a.class == classBounded && a.bound < b.bound:
		return -1
	case a.class == classBounded && a.bound > b.bound:
		return 1
	}
	return int(a.seg - b.seg)
}

// choosePath assigns the access path and its predicted cost for one
// segment. Forced strategies map directly, falling back to an exact scan
// where the path needs codes a mutable segment cannot offer (init has
// already refused options the code paths cannot serve). Auto runs BOND:
// at the fixed priors it predicts at most bondFrac·n·dims (the shape factor
// is ≤ 1), below the compressed filter's ComprCodeCost·comprFilterFrac +
// comprSurvive = 1.25 and the VA-File's VACodeCost + vaSurvive = 1.28
// times n·dims, so no other path could win on prediction.
func choosePath(strat Strategy, s *Segment, n, dims int, shape float64) (Path, float64) {
	switch strat {
	case ForceExact:
		return PathExact, predictExact(n, dims)
	case ForceCompressed:
		if s.Sealed && s.Codes != nil {
			return PathCompressed, predictCompressed(n, dims)
		}
		return PathExact, predictExact(n, dims)
	case ForceVAFile:
		if s.Sealed && s.VA != nil {
			return PathVAFile, predictVAFile(n, dims)
		}
		return PathExact, predictExact(n, dims)
	}
	return PathBOND, predictBond(n, dims, shape)
}

// effectiveQueryMass is T(q) over the effective (weighted, subspaced)
// dimensions — the yardstick the similarity shape factor compares a
// segment's bound against.
func effectiveQueryMass(q []float64, opts core.Options) float64 {
	mass := 0.0
	if len(opts.Dims) > 0 {
		for _, d := range opts.Dims {
			w := 1.0
			if len(opts.Weights) > 0 {
				w = opts.Weights[d]
			}
			mass += w * q[d]
		}
		return mass
	}
	for d, qd := range q {
		w := 1.0
		if len(opts.Weights) > 0 {
			w = opts.Weights[d]
		}
		mass += w * qd
	}
	return mass
}

// PredictedCost sums the per-step predictions.
func (p *Plan) PredictedCost() float64 {
	var c float64
	for i := range p.Steps {
		c += p.Steps[i].PredCost
	}
	return c
}

// ActualCost sums the measured per-step costs (0 before Execute).
func (p *Plan) ActualCost() float64 {
	var c float64
	for i := range p.Steps {
		c += p.Steps[i].ActualCost
	}
	return c
}

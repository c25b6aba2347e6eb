package plan

import (
	"fmt"
	"math"

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
	// first, then sequential best-bound-first so κ tightens fast). The
	// bounded segments join it as the cursor reaches them; a plan made by
	// New lists every segment once Explain or Execute has run, a pooled
	// plan only those the running κ did not dismiss.
	Steps []Step
	// Dims and Slots describe the planned collection.
	Dims, Slots int
	// Truncated reports that the deadline stopped execution early.
	Truncated bool

	segs []Segment
	pool *Pool

	// eff is the query's effective dimensions in the order a synopsis bound
	// sums them, heap the bounded segments no step has taken yet (see
	// nextBounded); both are kept for reuse on pooled plans.
	eff  []int32
	heap []segEntry

	// cells counts the synopsis cells — one dimension of one segment's
	// Lo/Hi — the plan has read.
	cells int

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
// pooled plan keeps its buffers (steps, dimensions, heap, the
// cursor's engine state, κ heap and step log) and no reference to the
// caller's spec, segments or results. It is a no-op for plans made by New.
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
		eff:    p.eff[:0],
		heap:   p.heap[:0],
		pooled: true,
		cur:    p.cur,
	}
	pool.releasePlan(p)
}

// init (re)plans into p, reusing its buffers: it validates the spec and
// classifies the segments. Execution order is the parallel fan-out group
// first (in segment order — it all runs concurrently anyway, and the early
// answers seed κ for the sequential tail), then the segments without a
// synopsis (searched regardless, in segment order), then the bounded ones
// best-bound-first, so κ tightens as fast as possible and later segments
// can be skipped. The first two classes become steps here. The bounded
// ones go into the heap the cursor takes them from, each holding its bound
// over its first boundBlock dimensions — the whole bound for similarities,
// whose prefixes prove nothing (see nextBounded).
func (p *Plan) init(segs []Segment, spec Spec, pool *Pool) error {
	opts := spec.options()
	view := func(i int) *core.SegmentView { return &segs[i].View }
	if err := core.ValidateSegments(len(segs), view, spec.Query, &opts); err != nil {
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
	dims := segs[0].View.Src.Dims()
	*p = Plan{
		Spec:   spec,
		Opts:   opts,
		Steps:  p.Steps[:0],
		Dims:   dims,
		segs:   segs,
		pool:   pool,
		eff:    boundDims(p.eff[:0], dims, &opts),
		heap:   p.heap[:0],
		pooled: p.pooled,
		cur:    p.cur,
	}
	if spec.Parallel >= 2 {
		for i := range segs {
			if n := segs[i].View.Src.Len(); n > 0 && p.parallel(n) {
				e := segEntry{seg: int32(i)}
				ok := p.bounded(&segs[i].View)
				if ok {
					p.extend(&e, len(p.eff))
				}
				p.Steps = append(p.Steps, p.newStep(i, e.key, ok))
			}
		}
	}
	dist := opts.Criterion.Distance()
	for i := range segs {
		v := &segs[i].View
		n := v.Src.Len()
		switch {
		case n == 0:
			continue
		case p.parallel(n):
		case !p.bounded(v):
			p.Steps = append(p.Steps, p.newStep(i, 0, false))
		case dist:
			e := segEntry{seg: int32(i)}
			p.extend(&e, boundBlock)
			p.heap = append(p.heap, e)
		default:
			e := segEntry{seg: int32(i)}
			p.extend(&e, len(p.eff))
			e.key = -e.key
			p.heap = append(p.heap, e)
		}
		p.Slots += n
	}
	heapify(p.heap)
	return nil
}

// parallel reports whether a segment of n slots joins the fan-out group:
// under a parallelism hint, every segment when BOND is forced and those of
// at least parallelMinSegment slots under Auto. The bound plays no part.
func (p *Plan) parallel(n int) bool {
	s := &p.Spec
	return s.Parallel >= 2 && (s.Strategy == ForceBOND || s.Strategy == Auto && n >= parallelMinSegment)
}

// bounded reports whether a non-empty segment has a usable synopsis. A
// synopsis bounds every dimension or none (see core.SegmentView), so the
// first effective dimension tells: +Inf there means no value was observed.
func (p *Plan) bounded(v *core.SegmentView) bool {
	return v.Lo != nil && (len(p.eff) == 0 || !math.IsInf(v.Lo[p.eff[0]], 1))
}

// boundDims appends the query's effective dimensions to dst in the order
// a synopsis bound sums them: Dims, or every dimension, less the zero
// weights.
func boundDims(dst []int32, dims int, opts *core.Options) []int32 {
	keep := func(d int) bool { return len(opts.Weights) == 0 || opts.Weights[d] != 0 }
	if len(opts.Dims) > 0 {
		for _, d := range opts.Dims {
			if keep(d) {
				dst = append(dst, int32(d))
			}
		}
		return dst
	}
	for d := 0; d < dims; d++ {
		if keep(d) {
			dst = append(dst, int32(d))
		}
	}
	return dst
}

// newStep is segment i's step with its synopsis bound, access path and
// cost prediction.
func (p *Plan) newStep(i int, bound float64, hasBound bool) Step {
	s := &p.segs[i]
	n := s.View.Src.Len()
	st := Step{Segment: i, Base: s.View.Base, N: n, Sealed: s.Sealed, Bound: bound, HasBound: hasBound}
	dist, mass := p.Opts.Criterion.Distance(), 0.0
	if hasBound && !dist {
		mass = p.queryMass()
	}
	shape := shapeFactor(bound, hasBound, dist, mass)
	st.Path, st.PredCost = choosePath(p.Spec.Strategy, s, n, p.Dims, shape)
	st.Parallel = p.parallel(n)
	return st
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

// queryMass is T(q) over the effective (weighted, subspaced) dimensions —
// the yardstick the similarity shape factor compares a segment's bound
// against.
func (p *Plan) queryMass() float64 {
	mass := 0.0
	for _, d := range p.eff {
		w := 1.0
		if len(p.Opts.Weights) > 0 {
			w = p.Opts.Weights[d]
		}
		mass += w * p.Spec.Query[d]
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

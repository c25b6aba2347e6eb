package plan

import (
	"fmt"
	"time"

	"bond/internal/core"
	"bond/internal/kernel"
	"bond/internal/topk"
	"bond/internal/vafile"
)

// Result is a completed planned query: the merged exact answer and work
// statistics.
type Result struct {
	Results []topk.Result
	Stats   core.Stats
	// Truncated reports that the deadline stopped execution before every
	// planned segment ran; the answer covers the segments searched.
	Truncated bool
}

// stepOutcome is what one executed step produced, before folding. Its
// result list aliases the lane that ran the step and is consumed by fold
// before the lane runs another step.
type stepOutcome struct {
	rs    []topk.Result // rebased to global ids
	empty bool
	err   error

	stats    core.Stats            // PathBOND, PathExact
	comp     core.CompressedResult // PathCompressed
	vaCodes  int64                 // PathVAFile
	vaRefine int64
}

// lane is the segment-sized half of the executor's reusable state: the
// engine scratch every access path runs on (row-indexed scores, candidate
// lists, heaps) and the VA-File filter scratch and refinement staging. A
// lane runs one step at a time and keeps nothing of it once the step is
// folded, so one lane serves every step of a query, and every query of a
// QueryBatch worker's group. The Pool keeps a free list of them.
type lane struct {
	core core.Scratch

	va      vafile.Scratch
	vaScore []float64     // VA refinement scores
	vaOut   *topk.Heap    // VA refinement ranking heap
	vaRes   []topk.Result // VA refinement result staging
}

// cursor is the query-sized half: where one plan's execution stands and
// what it has derived from its query — the engine state every BOND or
// exact-scan step reads (order, weights, tail bounds; built by the first
// one), the VA-File bound table, the κ heap, and the merged step log. It
// lives in the Plan, so a pooled plan brings its buffers along and a worker
// co-scheduling a group of plans holds one lane and this much per query.
type cursor struct {
	// bond and exact are the engine state of BOND steps and of exact-scan
	// steps (PathExact, and the BOND steps run in one pass), each built by
	// the first step of the execution that needs it.
	bond, exact           core.Query
	bondBuilt, exactBuilt bool

	vaTbl   *vafile.Table
	vaBuilt bool // vaTbl holds this execution's bounds

	kappa *topk.Heap
	steps []core.StepStat // merged Stats.Steps staging

	next   int // the pending step, p.Steps[next], unless done
	done   bool
	err    error
	res    Result
	folded int
}

// reset readies the cursor for another execution, keeping its buffers and
// nothing of the caller's: a pooled plan must not pin a query vector or an
// exclusion bitmap.
func (c *cursor) reset() {
	c.bond.Forget()
	c.exact.Forget()
	*c = cursor{bond: c.bond, exact: c.exact, vaTbl: c.vaTbl, kappa: c.kappa, steps: c.steps[:0]}
}

// Execute runs the plan and merges the per-segment answers into the exact
// global top-k. The steps run one after another on one lane, in plan
// order, with synopsis skipping against the running κ. A forced-BOND
// plan's results are byte-identical to core.Search over the concatenated
// collection.
func Execute(p *Plan) (Result, error) {
	ln := p.pool.acquireLane()
	defer p.pool.releaseLane(ln)
	for p.begin(); !p.cur.done; {
		p.step(ln)
	}
	return p.finish()
}

// pending returns the segment of the step the cursor waits to run, or false
// once the execution has nothing left to run.
func (p *Plan) pending() (segment int, ok bool) {
	if p.cur.done {
		return 0, false
	}
	return p.Steps[p.cur.next].Segment, true
}

// begin starts the execution: it moves the cursor to the first step the
// running κ does not dismiss.
func (p *Plan) begin() {
	if p.cur == nil {
		p.cur = new(cursor)
	}
	c := p.cur
	c.reset()
	if c.kappa == nil {
		c.kappa = topk.NewLargest(p.Opts.K)
	}
	c.kappa.Reset(p.Opts.K, !p.Opts.Criterion.Distance())
	p.advance()
}

// advance moves the cursor to the next step the running κ does not dismiss.
// κ, once k results exist, is exact: it dismisses a whole segment whose
// synopsis bound cannot beat it, and rides into the ones that run, where it
// prunes candidate by candidate (the carried κ). Past the steps init wrote,
// the next one comes from the heap of bounded segments (nextBounded). Only
// the plan's own steps move its κ, so the pending step stays the right one
// however long it waits for its turn.
func (p *Plan) advance() {
	c := p.cur
	dist := p.Opts.Criterion.Distance()
	kappa, full := c.kappa.Threshold()
	kappa = p.adjustKappa(kappa, dist)
	for ; c.next < len(p.Steps) || p.nextBounded(kappa, full); c.next++ {
		st := &p.Steps[c.next]
		st.Kappa, st.HasKappa = kappa, full
		if !full || !st.HasBound || !core.CannotBeat(st.Bound, kappa, dist) {
			return
		}
		st.Skipped = true
		c.res.Stats.SegmentsSkipped++
	}
	c.done = true
}

// boundBlock is how many effective dimensions a distance segment's partial
// bound first covers; each extension then doubles them. On
// cluster-contiguous data the first block already puts a far segment's
// prefix above κ, so a dismissed segment costs boundBlock cells, while a
// bound that must be finished takes log₂(dims/boundBlock) heap passes, and
// a dismissal never reads more than twice the dimensions it needed. On
// BenchmarkPlanQuery's 1 536 segments, blocks of 2, 4 and 8 planned within
// noise of each other and 16 a third slower.
const boundBlock = 4

// segEntry is a bounded segment no step has taken yet: its synopsis bound
// summed over the first pos effective dimensions (the whole bound once pos
// reaches len(eff)), negated for similarities — so the heap orders both
// directions smallest key first, segment index breaking ties.
type segEntry struct {
	key float64
	seg int32
	pos int32
}

// nextBounded appends the next bounded segment's step to p.Steps and reports
// true, or reports false once there is none left to run. It is
// branch-and-bound over the synopses (§ 5, one level up) and reads a
// segment's synopsis only as far as the decision needs:
//   - A top entry whose key already cannot beat κ dismisses the whole heap:
//     every other bound is at least its key, which is at least the top's. (A
//     distance term is never negative, so a partial distance bound never
//     exceeds the whole one; a similarity entry is always complete.) A
//     pooled plan counts the dismissals; one made by New lists them as steps,
//     which advance then marks skipped.
//   - A complete top is the next step: no other entry's bound can come
//     before it in the order of the complete bounds (bound, then index) —
//     the order eager bound-and-sort planning gave.
//   - Otherwise the top's bound covers twice the dimensions it did, and the
//     entry sinks to its place.
func (p *Plan) nextBounded(kappa float64, full bool) bool {
	dist := p.Opts.Criterion.Distance()
	for len(p.heap) > 0 {
		top := &p.heap[0]
		if full && core.CannotBeat(p.entryBound(*top), kappa, dist) {
			if p.pooled {
				p.cur.res.Stats.SegmentsSkipped += len(p.heap)
				p.heap = p.heap[:0]
				return false
			}
			p.materialize()
			return true
		}
		if int(top.pos) == len(p.eff) {
			p.Steps = append(p.Steps, p.boundedStep(p.pop()))
			return true
		}
		p.extend(top, int(top.pos))
		siftDown(p.heap, 0)
	}
	return false
}

// materialize appends every segment left in the heap to the steps, its
// bound finished from the saved prefix, in the order the complete bounds
// give — so that a plan made by New lists every segment, as EXPLAIN prints
// them. It runs from Explain or finish, whichever comes first, and needs the
// segments finish drops.
func (p *Plan) materialize() {
	for i := range p.heap {
		p.extend(&p.heap[i], len(p.eff))
	}
	heapify(p.heap)
	for len(p.heap) > 0 {
		p.Steps = append(p.Steps, p.boundedStep(p.pop()))
	}
}

// extend adds up to n more effective dimensions to e's partial bound.
func (p *Plan) extend(e *segEntry, n int) {
	to := min(int(e.pos)+n, len(p.eff))
	e.key = core.SegBound(&p.segs[e.seg].View, p.Spec.Query, &p.Opts, p.eff[e.pos:to], e.key)
	p.cells += to - int(e.pos)
	e.pos = int32(to)
}

// entryBound is e's (partial) bound with the direction restored.
func (p *Plan) entryBound(e segEntry) float64 {
	if p.Opts.Criterion.Distance() {
		return e.key
	}
	return -e.key
}

// boundedStep is the step of a heap entry whose bound is complete.
func (p *Plan) boundedStep(e segEntry) Step {
	return p.newStep(int(e.seg), p.entryBound(e), true)
}

// pop removes and returns the heap's top entry.
func (p *Plan) pop() segEntry {
	h := p.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	p.heap = h[:last]
	siftDown(p.heap, 0)
	return top
}

func entryLess(a, b segEntry) bool {
	return a.key < b.key || a.key == b.key && a.seg < b.seg
}

func heapify(h []segEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown moves h[i] down to its place below.
func siftDown(h []segEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && entryLess(h[c+1], h[c]) {
			c++
		}
		if !entryLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// step runs the pending step on ln, folds its outcome and advances. The
// deadline is checked here, immediately before the step would start.
func (p *Plan) step(ln *lane) {
	c := p.cur
	if p.pastDeadline() {
		p.Truncated, c.done = true, true
		return
	}
	st := &p.Steps[c.next]
	out := p.runStep(st, ln)
	if out.err != nil {
		c.err, c.done = fmt.Errorf("plan: segment %d: %w", st.Segment, out.err), true
		return
	}
	if !out.empty {
		p.fold(st, out)
	}
	c.next++
	p.advance()
}

// fold merges one executed step's outcome into the running answer.
func (p *Plan) fold(st *Step, out stepOutcome) {
	c := p.cur
	st.Executed = true
	c.folded++
	stats := &c.res.Stats
	stats.SegmentsSearched++
	switch st.Path {
	case PathBOND:
		mergeCounters(stats, out.stats)
		c.steps = appendSteps(c.steps, out.stats.Steps, st.Segment)
	case PathCompressed:
		mergeCounters(stats, out.comp.FilterStats)
		stats.ValuesScanned += out.comp.RefineValuesScanned
		c.steps = appendSteps(c.steps, out.comp.FilterStats.Steps, st.Segment)
	case PathExact:
		stats.ValuesScanned += out.stats.ValuesScanned
	case PathVAFile:
		stats.ValuesScanned += out.vaCodes + out.vaRefine
	}
	for _, r := range out.rs {
		c.kappa.Push(r.ID, r.Score)
	}
}

// finish closes the execution and returns the merged answer, or the error
// that stopped it.
func (p *Plan) finish() (Result, error) {
	c := p.cur
	// Drop the segment handles: Explain only needs Steps, and a caller
	// holding the plan (e.g. to log it later) must not pin the segments'
	// columns and cached code arrays past compaction. A plan made by New
	// first lists the segments its cursor never reached.
	if !p.pooled {
		p.materialize()
	}
	p.segs, p.heap = nil, p.heap[:0]
	if c.err != nil {
		return Result{}, c.err
	}
	res := c.res
	res.Truncated = p.Truncated
	if c.folded == 0 {
		if p.Truncated {
			return res, nil
		}
		return Result{}, core.ErrNoCandidates
	}
	// The κ heap saw every per-segment result and its retained set is a
	// pure function of the offered results (score-then-id tie-break), so it
	// IS the exact merged top-k — no per-segment lists to merge. The copies
	// below are the only per-query allocations of a steady-state Query: the
	// returned result list and the returned step log (everything else the
	// caller receives is by value).
	res.Results = c.kappa.Results()
	res.Stats.Steps = append([]core.StepStat(nil), c.steps...)
	return res, nil
}

// mergeCounters folds a segment's scalar work counters into an aggregate
// (the step logs are staged separately in the executor scratch).
func mergeCounters(dst *core.Stats, src core.Stats) {
	dst.ValuesScanned += src.ValuesScanned
	dst.FinalCandidates += src.FinalCandidates
	if src.DimsUntilK > dst.DimsUntilK {
		dst.DimsUntilK = src.DimsUntilK
	}
}

// appendSteps copies a segment's pruning-step log into the staging buffer,
// tagging each entry with the physical segment index.
func appendSteps(dst []core.StepStat, src []core.StepStat, segment int) []core.StepStat {
	for _, st := range src {
		st.Segment = segment
		dst = append(dst, st)
	}
	return dst
}

// adjustKappa applies the approximation tolerance to κ: a segment, or a
// candidate inside one, that cannot improve κ by more than Tolerance is
// treated as beaten. Zero tolerance keeps the strict (exact) comparison.
func (p *Plan) adjustKappa(kappa float64, dist bool) float64 {
	if p.Spec.Tolerance <= 0 {
		return kappa
	}
	if dist {
		return kappa - p.Spec.Tolerance
	}
	return kappa + p.Spec.Tolerance
}

func (p *Plan) pastDeadline() bool {
	return !p.Spec.Deadline.IsZero() && time.Now().After(p.Spec.Deadline)
}

// engineQuery returns the execution's engine state for a BOND or exact-scan
// step, built on the first such step.
func (p *Plan) engineQuery(path Path) *core.Query {
	c := p.cur
	qs, built := &c.bond, &c.bondBuilt
	if path == PathExact {
		qs, built = &c.exact, &c.exactBuilt
	}
	if !*built {
		if path == PathExact {
			qs.InitExact(p.Spec.Query, p.Opts)
		} else {
			qs.Init(p.Spec.Query, p.Opts)
		}
		*built = true
	}
	return qs
}

// runStep executes one step's access path over its segment on the given
// lane, filling the step's outcome fields.
func (p *Plan) runStep(st *Step, ln *lane) stepOutcome {
	switch st.Path {
	case PathBOND, PathExact:
		return p.runEngine(st, ln)

	case PathCompressed:
		seg := &p.segs[st.Segment]
		vopts := p.Opts
		vopts.Exclude = core.LocalExclude(p.Opts.Exclude, st.Base, st.N)
		sub, empty := core.SearchCompressedOneScratch(seg.View.Src, seg.Codes(), p.Spec.Query, vopts, &ln.core)
		if empty {
			return stepOutcome{empty: true}
		}
		st.ActualCost = ComprCodeCost*float64(sub.FilterStats.ValuesScanned) + float64(sub.RefineValuesScanned)
		st.Candidates = sub.FilterCandidates
		sub.Results = core.RebaseInPlace(sub.Results, st.Base)
		return stepOutcome{rs: sub.Results, comp: sub}

	case PathVAFile:
		return p.runVAFile(st, ln)
	}
	return stepOutcome{err: fmt.Errorf("plan: unknown path %v", st.Path)}
}

// runEngine is the BOND and exact-scan access path: the core engine over
// the step's segment under the step's carried κ, which prunes candidate by
// candidate on the BOND path and filters the final ranking on both. A BOND
// step whose synopsis proves that no pruning attempt could remove a row
// (core.OnePass) runs as an exact scan instead, which answers the same
// bits without ordering the dimensions, and is marked OnePass: this is the
// one place that decides it, for a query's steps and a batch's groups alike.
func (p *Plan) runEngine(st *Step, ln *lane) stepOutcome {
	seg := &p.segs[st.Segment].View
	path := st.Path
	if path == PathBOND && st.HasBound && core.OnePass(seg, p.Spec.Query, &p.Opts, p.eff, st.Kappa, st.HasKappa) {
		st.OnePass, path = true, PathExact
	}
	qs := p.engineQuery(path)
	exclude := core.LocalExclude(p.Opts.Exclude, st.Base, st.N)
	r, empty := core.SearchOneScratch(seg.Src, qs, exclude, st.Kappa, st.HasKappa, &ln.core)
	if empty {
		return stepOutcome{empty: true}
	}
	st.ActualCost = float64(r.Stats.ValuesScanned)
	st.Candidates = r.Stats.FinalCandidates
	if st.Path == PathExact {
		st.Candidates = len(r.Results)
	}
	return stepOutcome{rs: core.RebaseInPlace(r.Results, st.Base), stats: r.Stats}
}

// runVAFile is the VA-File access path: filter over the segment's
// row-major codes (skipping deleted and excluded ids), then exact
// refinement on the columns in natural dimension order — the same
// summation order the compressed refine and exact-scan paths use, so a
// segment answers identically whichever path the planner picks.
func (p *Plan) runVAFile(st *Step, sc *lane) stepOutcome {
	seg := &p.segs[st.Segment]
	src := seg.View.Src
	f := seg.VA()
	deleted := core.DeletedView(src)
	vopts := &p.Opts
	excl := core.LocalExclude(p.Opts.Exclude, st.Base, st.N)
	skip := func(id int) bool {
		if deleted.Get(id) {
			return true
		}
		return excl != nil && id < excl.Len() && excl.Get(id)
	}
	q := p.Spec.Query
	dist := vopts.Criterion.Distance()
	tbl := p.vaTable(f, dist)

	var ids []int
	var fst vafileStats
	if dist {
		raw, s := f.FilterEuclideanLiveScratch(tbl, q, vopts.K, skip, &sc.va)
		ids, fst = raw, vafileStats{codes: s.CodesScanned}
	} else {
		raw, s := f.FilterHistogramLiveScratch(tbl, q, vopts.K, skip, &sc.va)
		ids, fst = raw, vafileStats{codes: s.CodesScanned}
	}
	if len(ids) == 0 {
		return stepOutcome{empty: true}
	}

	score := zeroedFloats(sc.vaScore, len(ids))
	sc.vaScore = score
	for d := 0; d < src.Dims(); d++ {
		col := src.Column(d)
		if dist {
			kernel.AccSqDist(score, col, ids, q[d])
		} else {
			kernel.AccMinQ(score, col, ids, q[d])
		}
	}
	refine := int64(len(ids)) * int64(src.Dims())

	k := vopts.K
	if k > len(ids) {
		k = len(ids)
	}
	if sc.vaOut == nil {
		sc.vaOut = topk.NewLargest(k)
	}
	h := sc.vaOut
	h.Reset(k, !dist)
	for ci, id := range ids {
		h.Push(id, score[ci])
	}
	sc.vaRes = h.AppendResults(sc.vaRes[:0])

	st.ActualCost = VACodeCost*float64(fst.codes) + float64(refine)
	st.Candidates = len(ids)
	return stepOutcome{
		rs:       core.RebaseInPlace(sc.vaRes, st.Base),
		vaCodes:  fst.codes,
		vaRefine: refine,
	}
}

// zeroedFloats returns s resized to exactly n zero values, reusing the
// backing array when possible.
func zeroedFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

type vafileStats struct{ codes int64 }

// vaTable returns the query's shared VA-File bound table, (re)built into
// the cursor on the first VA step of the execution (segments share one
// quantization grid, so one table serves them all; a segment on a
// different grid gets a private table).
func (p *Plan) vaTable(f *vafile.File, dist bool) *vafile.Table {
	sc := p.cur
	if !sc.vaBuilt {
		if sc.vaTbl == nil {
			sc.vaTbl = &vafile.Table{}
		}
		if dist {
			sc.vaTbl.BuildEuclidean(f.Quantizer(), p.Spec.Query)
		} else {
			sc.vaTbl.BuildHistogram(f.Quantizer(), p.Spec.Query)
		}
		sc.vaBuilt = true
	}
	if !sc.vaTbl.Fits(f) {
		if dist {
			return vafile.NewEuclideanTable(f.Quantizer(), p.Spec.Query)
		}
		return vafile.NewHistogramTable(f.Quantizer(), p.Spec.Query)
	}
	return sc.vaTbl
}

package plan

import (
	"fmt"
	"sync"
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
// lists, heaps), the VA-File filter scratch and refinement staging, and the
// parallel fan-out staging. A lane runs one step at a time and keeps
// nothing of it once the step is folded, so one lane serves every step of a
// query, and every query of a QueryBatch worker's group. The Pool keeps a
// free list of them.
type lane struct {
	core core.Scratch

	va      vafile.Scratch
	vaScore []float64     // VA refinement scores
	vaOut   *topk.Heap    // VA refinement ranking heap
	vaRes   []topk.Result // VA refinement result staging

	outs []parOutcome // parallel fan-out staging

	// fan is the BOND state a fan-out goroutine other than the first builds
	// for itself: a core.Query serves one goroutine at a time.
	fan core.Query
}

// parOutcome is one parallel step's outcome with the lane that produced it
// (released after folding).
type parOutcome struct {
	out  stepOutcome
	lane *lane
}

// cursor is the query-sized half: where one plan's execution stands and
// what it has derived from its query — the engine state every BOND or
// exact-scan step reads (order, weights, tail bounds; built by the first
// one), the VA-File bound table, the κ heap, and the merged step log. It
// lives in the Plan, so a pooled plan brings its buffers along and a worker
// co-scheduling a group of plans holds one lane and this much per query.
type cursor struct {
	query      core.Query
	queryBuilt bool // query holds this execution's state, for queryPath
	queryPath  Path

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
	c.query.Forget()
	*c = cursor{query: c.query, vaTbl: c.vaTbl, kappa: c.kappa, steps: c.steps[:0]}
}

// Execute runs the plan and merges the per-segment answers into the exact
// global top-k. The parallel fan-out group runs first (concurrently); the
// sequential tail then runs best-bound-first with synopsis skipping against
// the running κ. A forced-BOND plan's results are byte-identical to core.Search over
// the concatenated collection.
func Execute(p *Plan) (Result, error) {
	ln := p.pool.acquireLane()
	defer p.pool.releaseLane(ln)
	for p.begin(ln); !p.cur.done; {
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

// begin starts the execution: it runs the parallel fan-out group, if the
// plan has one (no skipping — all its segments start before any κ exists —
// but its answers seed κ for the rest), and moves the cursor to the first
// sequential step the running κ does not dismiss.
func (p *Plan) begin(ln *lane) {
	if p.cur == nil {
		p.cur = new(cursor)
	}
	c := p.cur
	c.reset()
	if c.kappa == nil {
		c.kappa = topk.NewLargest(p.Opts.K)
	}
	c.kappa.Reset(p.Opts.K, !p.Opts.Criterion.Distance())

	npar := 0
	for npar < len(p.Steps) && p.Steps[npar].Parallel {
		npar++
	}
	c.next = npar
	switch {
	case npar > 0 && p.pastDeadline():
		p.Truncated, c.done = true, true
		return
	case npar > 0:
		if c.err = p.fanOut(npar, ln); c.err != nil {
			c.done = true
			return
		}
	}
	p.advance()
}

// fanOut runs the first npar steps concurrently, each on its own lane (the
// first on ln), and folds their outcomes in step order.
func (p *Plan) fanOut(npar int, ln *lane) error {
	outs := grow(ln.outs, npar)[:npar]
	ln.outs = outs
	first := p.engineQuery(PathBOND)
	var wg sync.WaitGroup
	for i := 0; i < npar; i++ {
		l, qs := ln, first
		if i > 0 {
			l = p.pool.acquireLane()
			qs = &l.fan
		}
		outs[i].lane = l
		wg.Add(1)
		go func(i int, l *lane, qs *core.Query) {
			defer wg.Done()
			if qs == &l.fan {
				qs.Init(p.Spec.Query, p.Opts)
			}
			outs[i].out = p.runEngine(&p.Steps[i], l, qs)
		}(i, l, qs)
	}
	wg.Wait()
	var ferr error
	for i := 0; i < npar; i++ {
		o := &outs[i]
		switch {
		case o.out.err != nil:
			if ferr == nil {
				ferr = fmt.Errorf("plan: segment %d: %w", p.Steps[i].Segment, o.out.err)
			}
		case !o.out.empty && ferr == nil:
			// Fold (which consumes the lane-aliased results) before the
			// lane can be released or reused.
			p.fold(&p.Steps[i], o.out)
		}
		if o.lane != ln {
			p.pool.releaseLane(o.lane)
		}
		*o = parOutcome{}
	}
	return ferr
}

// advance moves the cursor to the next step the running κ does not dismiss.
// κ, once k results exist, is exact: it dismisses a whole segment whose
// synopsis bound cannot beat it, and rides into the ones that run, where it
// prunes candidate by candidate (the carried κ). Only the plan's own steps
// move its κ, so the pending step stays the right one however long it waits
// for its turn.
func (p *Plan) advance() {
	c := p.cur
	dist := p.Opts.Criterion.Distance()
	kappa, full := c.kappa.Threshold()
	kappa = p.adjustKappa(kappa, dist)
	for ; c.next < len(p.Steps); c.next++ {
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
	// columns and cached code arrays past compaction.
	p.segs = nil
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

// grow returns s with length 0 and capacity at least n, reusing the
// backing array when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
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
// step, built on the first such step. (No strategy plans both kinds into
// one plan; one that did would rebuild here on every change of kind.)
func (p *Plan) engineQuery(path Path) *core.Query {
	c := p.cur
	if !c.queryBuilt || c.queryPath != path {
		if path == PathExact {
			c.query.InitExact(p.Spec.Query, p.Opts)
		} else {
			c.query.Init(p.Spec.Query, p.Opts)
		}
		c.queryBuilt, c.queryPath = true, path
	}
	return &c.query
}

// runStep executes one step's access path over its segment on the given
// lane, filling the step's outcome fields.
func (p *Plan) runStep(st *Step, ln *lane) stepOutcome {
	switch st.Path {
	case PathBOND, PathExact:
		return p.runEngine(st, ln, p.engineQuery(st.Path))

	case PathCompressed:
		seg := p.segs[st.Segment]
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
// candidate on the BOND path and filters the final ranking on both. qs
// says which of the two it is (Init or InitExact).
func (p *Plan) runEngine(st *Step, ln *lane, qs *core.Query) stepOutcome {
	src := p.segs[st.Segment].View.Src
	exclude := core.LocalExclude(p.Opts.Exclude, st.Base, st.N)
	r, empty := core.SearchOneScratch(src, qs, exclude, st.Kappa, st.HasKappa, &ln.core)
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
	seg := p.segs[st.Segment]
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

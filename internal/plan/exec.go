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
// result list aliases the scratch that ran the step and is consumed by
// fold before the scratch runs another step.
type stepOutcome struct {
	rs    []topk.Result // rebased to global ids
	empty bool
	err   error

	bondStats    core.Stats            // PathBOND
	comp         core.CompressedResult // PathCompressed
	exactScanned int64                 // PathExact
	vaCodes      int64                 // PathVAFile
	vaCands      int
	vaRefine     int64
}

// execScratch bundles the per-query reusable state of one executor lane:
// the engine scratch every access path runs on, the query-scoped BOND
// state every BOND step of the execution reads (order, weights, tail
// bounds — built by the first one), the VA-File filter scratch with the
// per-query bound table, the global κ heap, the merged step log, and the
// parallel fan-out staging. The model keeps a free list of these (and
// clears the two per-query "built" marks when it hands one out), so
// steady-state queries allocate nothing here.
type execScratch struct {
	core core.Scratch

	bond      core.Query
	bondBuilt bool // bond holds this query's state

	va      vafile.Scratch
	vaTbl   *vafile.Table
	vaBuilt bool          // vaTbl holds this query's bounds
	vaScore []float64     // VA refinement scores
	vaOut   *topk.Heap    // VA refinement ranking heap
	vaRes   []topk.Result // VA refinement result staging

	kappa *topk.Heap
	steps []core.StepStat // merged Stats.Steps staging

	outs []parOutcome // parallel fan-out staging
}

// parOutcome is one parallel step's outcome with the scratch lane that
// produced it (released after folding).
type parOutcome struct {
	out  stepOutcome
	lane *execScratch
}

// Execute runs the plan and merges the per-segment answers into the exact
// global top-k, feeding observed costs back into the plan's model. The
// parallel fan-out group runs first (concurrently); the sequential tail
// then runs best-bound-first with synopsis skipping against the running
// κ. A forced-BOND plan's results are byte-identical to core.Search over
// the concatenated collection.
func Execute(p *Plan) (Result, error) {
	sc := p.model.acquireScratch()
	defer p.model.releaseScratch(sc)
	return p.execute(sc)
}

func (p *Plan) execute(sc *execScratch) (Result, error) {
	// Once execution finishes, drop the segment handles: Explain only
	// needs Steps and the model snapshot, and a caller holding the plan
	// (e.g. to log it later) must not pin the segments' columns and cached
	// code arrays past compaction.
	defer func() { p.segs = nil }()
	sc.steps = sc.steps[:0]

	opts := p.Opts
	dist := opts.Criterion.Distance()
	if sc.kappa == nil {
		sc.kappa = topk.NewLargest(opts.K)
	}
	kappaHeap := sc.kappa
	kappaHeap.Reset(opts.K, !dist)

	var res Result
	executed := false
	folded := 0

	fold := func(st *Step, out stepOutcome) {
		st.Executed = true
		executed = true
		folded++
		p.feedback(st, out)
		res.Stats.SegmentsSearched++
		switch st.Path {
		case PathBOND:
			mergeCounters(&res.Stats, out.bondStats)
			sc.steps = appendSteps(sc.steps, out.bondStats.Steps, st.Segment)
		case PathCompressed:
			mergeCounters(&res.Stats, out.comp.FilterStats)
			res.Stats.ValuesScanned += out.comp.RefineValuesScanned
			sc.steps = appendSteps(sc.steps, out.comp.FilterStats.Steps, st.Segment)
		case PathExact:
			res.Stats.ValuesScanned += out.exactScanned
		case PathVAFile:
			res.Stats.ValuesScanned += out.vaCodes + out.vaRefine
		}
		for _, r := range out.rs {
			kappaHeap.Push(r.ID, r.Score)
		}
	}

	// Phase 1: the parallel fan-out group (no skipping — all its segments
	// start before any κ exists — but its answers seed κ for phase 2).
	npar := 0
	for npar < len(p.Steps) && p.Steps[npar].Parallel {
		npar++
	}
	switch {
	case npar > 0 && p.pastDeadline():
		p.Truncated = true
	case npar > 0:
		outs := grow(sc.outs, npar)[:npar]
		sc.outs = outs
		var wg sync.WaitGroup
		for i := 0; i < npar; i++ {
			// Each goroutine runs on its own scratch lane; the first one
			// reuses this query's lane.
			lane := sc
			if i > 0 {
				lane = p.model.acquireScratch()
			}
			outs[i].lane = lane
			wg.Add(1)
			go func(i int, lane *execScratch) {
				defer wg.Done()
				outs[i].out = p.runStep(&p.Steps[i], lane)
			}(i, lane)
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
				fold(&p.Steps[i], o.out)
			}
			if o.lane != sc {
				p.model.releaseScratch(o.lane)
			}
			o.lane = nil
			o.out = stepOutcome{}
		}
		if ferr != nil {
			return Result{}, ferr
		}
	}

	// Phase 2: the sequential tail, best-bound-first with skipping.
	for i := npar; i < len(p.Steps); i++ {
		st := &p.Steps[i]
		if p.pastDeadline() {
			p.Truncated = true
			break
		}
		// κ, once k results exist, is exact: it dismisses a whole segment
		// whose synopsis bound cannot beat it, and rides into the ones that
		// run, where it prunes candidate by candidate (the carried κ).
		kappa, full := kappaHeap.Threshold()
		st.Kappa, st.HasKappa = p.adjustKappa(kappa, dist), full
		if full && st.HasBound && core.CannotBeat(st.Bound, st.Kappa, dist) {
			st.Skipped = true
			res.Stats.SegmentsSkipped++
			continue
		}
		out := p.runStep(st, sc)
		if out.err != nil {
			return Result{}, fmt.Errorf("plan: segment %d: %w", st.Segment, out.err)
		}
		if out.empty {
			continue
		}
		fold(st, out)
	}

	p.countQuery(executed)
	res.Truncated = p.Truncated
	if folded == 0 {
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
	res.Results = kappaHeap.Results()
	res.Stats.Steps = append([]core.StepStat(nil), sc.steps...)
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

// runStep executes one step's access path over its segment on the given
// scratch lane, filling the step's outcome fields. Only the BOND path
// prunes by the step's carried κ.
func (p *Plan) runStep(st *Step, sc *execScratch) stepOutcome {
	seg := p.segs[st.Segment]
	src := seg.View.Src
	vopts := p.Opts
	vopts.Exclude = core.LocalExclude(p.Opts.Exclude, st.Base, st.N)

	switch st.Path {
	case PathBOND:
		if !sc.bondBuilt {
			sc.bond.Init(p.Spec.Query, p.Opts)
			sc.bondBuilt = true
		}
		r, empty := core.SearchOneScratch(src, &sc.bond, vopts.Exclude, st.Kappa, st.HasKappa, &sc.core)
		if empty {
			return stepOutcome{empty: true}
		}
		st.ActualCost = float64(r.Stats.ValuesScanned)
		st.Candidates = r.Stats.FinalCandidates
		return stepOutcome{rs: core.RebaseInPlace(r.Results, st.Base), bondStats: r.Stats}

	case PathCompressed:
		sub, empty := core.SearchCompressedOneScratch(src, seg.Codes(), p.Spec.Query, vopts, &sc.core)
		if empty {
			return stepOutcome{empty: true}
		}
		st.ActualCost = ComprCodeCost*float64(sub.FilterStats.ValuesScanned) + float64(sub.RefineValuesScanned)
		st.Candidates = sub.FilterCandidates
		sub.Results = core.RebaseInPlace(sub.Results, st.Base)
		return stepOutcome{rs: sub.Results, comp: sub}

	case PathVAFile:
		return p.runVAFile(st, seg, vopts, sc)

	case PathExact:
		rs, scanned := core.ExactScanScratch(src, p.Spec.Query, vopts, &sc.core)
		if rs == nil {
			return stepOutcome{empty: true}
		}
		st.ActualCost = float64(scanned)
		st.Candidates = len(rs)
		return stepOutcome{rs: core.RebaseInPlace(rs, st.Base), exactScanned: scanned}

	}
	return stepOutcome{err: fmt.Errorf("plan: unknown path %v", st.Path)}
}

// runVAFile is the VA-File access path: filter over the segment's
// row-major codes (skipping deleted and excluded ids), then exact
// refinement on the columns in natural dimension order — the same
// summation order the compressed refine and exact-scan paths use, so a
// segment answers identically whichever path the planner picks.
func (p *Plan) runVAFile(st *Step, seg Segment, vopts core.Options, sc *execScratch) stepOutcome {
	src := seg.View.Src
	f := seg.VA()
	deleted := core.DeletedView(src)
	excl := vopts.Exclude
	skip := func(id int) bool {
		if deleted.Get(id) {
			return true
		}
		return excl != nil && id < excl.Len() && excl.Get(id)
	}
	q := p.Spec.Query
	dist := vopts.Criterion.Distance()
	tbl := p.vaTable(f, dist, sc)

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
		vaCands:  len(ids),
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
// the scratch on the first VA step of the execution (segments share one
// quantization grid, so one table serves them all; a segment on a
// different grid gets a private table).
func (p *Plan) vaTable(f *vafile.File, dist bool, sc *execScratch) *vafile.Table {
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

// feedback folds a step's observed selectivity back into the model (or
// the query's batch accumulator), normalizing out the shape factor so the
// stored coefficients stay segment-neutral. An exact scan has none to
// report.
func (p *Plan) feedback(st *Step, out stepOutcome) {
	n := float64(st.N)
	nd := n * float64(p.Dims)
	if nd == 0 {
		return
	}
	sink := observer(p.model)
	if p.fb != nil {
		sink = p.fb
	}
	switch st.Path {
	case PathBOND:
		// Under a carried κ the fraction also depends on the step's position
		// in the plan (the first step has no κ and reads the most). It is
		// fed back as observed, uncorrected: every executed segment is one
		// EWMA step, so the κ-less first step of a plan weighs no more than
		// any other and the coefficient tracks the fraction plans achieve.
		shape := st.shape
		if shape <= 0 {
			shape = 1
		}
		sink.observeBond(float64(out.bondStats.ValuesScanned) / (nd * shape))
	case PathCompressed:
		sink.observeCompressed(
			float64(out.comp.FilterStats.ValuesScanned)/nd,
			float64(out.comp.FilterCandidates)/n)
	case PathVAFile:
		sink.observeVA(float64(out.vaCands) / n)
	}
}

// countQuery attributes one executed query to the model or the batch
// accumulator.
func (p *Plan) countQuery(executed bool) {
	if !executed {
		return
	}
	if p.fb != nil {
		p.fb.countQuery()
		return
	}
	p.model.countQuery()
}

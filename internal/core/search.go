package core

import (
	"bond/internal/kernel"
	"bond/internal/metric"
	"bond/internal/topk"
)

// Search runs BOND (Algorithm 2) over a vertically decomposed source and
// returns the K best matches with exact scores, best first, together with
// work statistics. Results are deterministic: ties in score break toward
// the smaller vector id, exactly as in the sequential-scan baselines, so
// BOND and a full scan always return identical answer sets.
//
// A segmented collection goes through package plan instead, which runs this
// engine per segment and additionally skips whole segments via their
// synopses.
func Search(s Source, q []float64, opts Options) (Result, error) {
	if err := opts.validate(s, q); err != nil {
		return Result{}, err
	}
	e, err := newEngine(s, q, opts, nil)
	if err != nil {
		return Result{}, err
	}
	e.run()
	res := e.finish()
	res.Stats.SegmentsSearched = 1
	return res, nil
}

// engine holds the state of one search: the candidate ids, their partial
// scores S⁻, and (for per-vector criteria) their remaining masses T(v⁺).
// The three slices stay index-aligned through every compaction and are
// backed by the engine's Scratch.
type engine struct {
	s       Source
	q       []float64
	opts    Options
	weights []float64 // effective weights (may be synthesized from Dims)
	order   []int     // processing order over effective dimensions
	k       int

	cands []int
	score []float64
	tails []float64 // T(v⁺); only maintained when needTails

	needTails bool
	zeroDims  []int // zero-weight dimensions, permanent tail residents

	processedQ float64 // T(q⁻) over processed dimensions (futility test)
	stats      Stats

	sc *Scratch
}

// newEngine initializes the engine inside sc (nil allocates privately), so
// a pooled Scratch makes successive per-segment searches allocation-free.
func newEngine(s Source, q []float64, opts Options, sc *Scratch) (*engine, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	e := &sc.eng
	*e = engine{s: s, q: q, opts: opts, sc: sc}

	e.weights = opts.Weights
	if len(e.weights) == 0 && len(opts.Dims) > 0 && opts.Criterion.Distance() {
		// A subspace query is weighted search with 0/1 weights (Section 8.1).
		e.weights = make([]float64, s.Dims())
		for _, d := range opts.Dims {
			e.weights[d] = 1
		}
	}
	sc.order = buildOrderInto(grow(sc.order, s.Dims()),
		q, e.weights, opts.Dims, opts.Order, opts.Seed, opts.Criterion.Distance())
	e.order = sc.order
	if len(e.weights) > 0 {
		for d, w := range e.weights {
			if w == 0 {
				e.zeroDims = append(e.zeroDims, d)
			}
		}
	}

	deleted := deletedOf(s)
	cands := grow(sc.cands, s.Len())
	for id := 0; id < s.Len(); id++ {
		if deleted.Get(id) {
			continue
		}
		if excludedID(opts.Exclude, id) {
			continue
		}
		cands = append(cands, id)
	}
	sc.cands = cands
	e.cands = cands
	if len(e.cands) == 0 {
		return nil, ErrNoCandidates
	}
	e.k = opts.K
	if e.k > len(e.cands) {
		e.k = len(e.cands)
	}

	sc.score = zeroed(sc.score, len(e.cands))
	e.score = sc.score
	e.needTails = opts.Criterion == Hh || opts.Criterion == Ev
	if e.needTails {
		totals := s.Totals()
		sc.tails = zeroed(sc.tails, len(e.cands))
		e.tails = sc.tails
		for i, id := range e.cands {
			e.tails[i] = totals[id]
		}
	}
	e.stats.Steps = sc.steps[:0]
	return e, nil
}

// run is the Algorithm 2 loop: accumulate a batch of m columns, derive
// bounds, prune, repeat. Once the candidate set is down to k, the loop
// keeps accumulating (each remaining column is read for only k vectors,
// via positional lookup) so the returned scores are exact.
func (e *engine) run() {
	total := len(e.order)
	step := e.opts.Step
	for processed := 0; processed < total; {
		processed, step = e.stepOnce(processed, step)
	}
	e.stats.FinalCandidates = len(e.cands)
}

// stepOnce executes one iteration of the loop: accumulate a batch, then
// prune (unless the candidate set is already at k or the columns are
// exhausted). It returns the new position and the next stride, which
// AdaptiveStep may have widened (Section 5.2's dynamic-m variant: once a
// pruning attempt removes almost nothing, the per-step overhead no longer
// pays, so the stride doubles; a productive step resets it).
func (e *engine) stepOnce(processed, step int) (int, int) {
	total := len(e.order)
	next := processed + step
	if next > total {
		next = total
	}
	e.accumulate(processed, next)
	if next >= total || len(e.cands) <= e.k {
		return next, step
	}
	before := len(e.cands)
	e.pruneStep(next)
	if e.opts.AdaptiveStep {
		prunedFrac := float64(before-len(e.cands)) / float64(before)
		if prunedFrac < e.opts.AdaptiveThreshold {
			step *= 2
		} else {
			step = e.opts.Step
		}
	}
	return next, step
}

// accBlock is the candidate-block width of the accumulation loop: a block
// of partial scores, tails, and candidate ids (≈48 KB) stays resident in
// L1/L2 while the step's m columns stream past it, instead of the whole
// score array being re-fetched once per column.
const accBlock = 2048

// accumulate folds columns order[from:to] into the partial scores, and
// maintains the remaining masses for per-vector criteria. The inner loops
// are the package kernel gathers — unrolled, bounds-check-free, and
// branch-free — dispatched once per (block, column) pair; every score slot
// receives exactly one addition per column in the same order as the scalar
// loops this replaced, so scores are bit-identical.
func (e *engine) accumulate(from, to int) {
	dims := e.order[from:to]
	hist := !e.opts.Criterion.Distance()
	weighted := len(e.weights) > 0

	// Per-column bookkeeping, hoisted out of the candidate loops. For
	// weighted histogram intersection processedQ tracks the weighted query
	// mass so the futility test compares like with like.
	for _, d := range dims {
		if hist && weighted {
			e.processedQ += e.weights[d] * e.q[d]
		} else {
			e.processedQ += e.q[d]
		}
	}
	e.stats.ValuesScanned += int64(len(dims)) * int64(len(e.cands))

	for start := 0; start < len(e.cands); start += accBlock {
		end := start + accBlock
		if end > len(e.cands) {
			end = len(e.cands)
		}
		cb := e.cands[start:end]
		sb := e.score[start:end]
		var tb []float64
		if e.needTails {
			tb = e.tails[start:end]
		}
		for _, d := range dims {
			col := e.s.Column(d)
			qd := e.q[d]
			switch {
			case hist && weighted:
				// Weighted histogram intersection (Section 8.2): w·min(h, q).
				kernel.AccWMinQ(sb, col, cb, qd, e.weights[d])
			case hist && e.needTails:
				kernel.AccMinQTails(sb, tb, col, cb, qd)
			case hist:
				kernel.AccMinQ(sb, col, cb, qd)
			case weighted && e.needTails:
				kernel.AccWSqDistTails(sb, tb, col, cb, qd, e.weights[d])
			case weighted:
				kernel.AccWSqDist(sb, col, cb, qd, e.weights[d])
			case e.needTails:
				kernel.AccSqDistTails(sb, tb, col, cb, qd)
			default:
				kernel.AccSqDist(sb, col, cb, qd)
			}
		}
	}
}

// qTail gathers the query values of the unprocessed dimensions, appending
// the permanent zero-weight residents for weighted bounds. The returned
// slice is scratch-backed.
func (e *engine) qTail(processed int, withZeros bool) []float64 {
	rem := e.order[processed:]
	n := len(rem)
	if withZeros {
		n += len(e.zeroDims)
	}
	out := grow(e.sc.qtail, n)
	for _, d := range rem {
		out = append(out, e.q[d])
	}
	if withZeros {
		for _, d := range e.zeroDims {
			out = append(out, e.q[d])
		}
	}
	e.sc.qtail = out
	return out
}

// wTail gathers the weights matching qTail(processed, true).
func (e *engine) wTail(processed int) []float64 {
	rem := e.order[processed:]
	out := grow(e.sc.wtail, len(rem)+len(e.zeroDims))
	for _, d := range rem {
		out = append(out, e.weights[d])
	}
	for range e.zeroDims {
		out = append(out, 0)
	}
	e.sc.wtail = out
	return out
}

// pruneStep is step 2–4 of Algorithm 2: derive Smin and Smax from the
// partial scores and tail bounds, determine κ with a kfetch, and remove
// every candidate whose best case cannot reach it.
func (e *engine) pruneStep(processed int) {
	stat := StepStat{DimsProcessed: processed}
	before := len(e.cands)
	sc := e.sc

	// Every branch assigns keep[ci] for all ci before compact reads it, so
	// stale scratch values never survive.
	keep := grow(sc.keep, before)[:before]
	sc.keep = keep
	switch e.opts.Criterion {
	case Hq:
		var tq float64
		if len(e.weights) > 0 {
			// Weighted tail bound: Σ w_i·min(h_i,q_i) ≤ Σ w_i·q_i over the
			// remaining dimensions (zero-weight dimensions never appear in
			// the order, so they contribute nothing).
			for _, d := range e.order[processed:] {
				tq += e.weights[d] * e.q[d]
			}
		} else {
			tq = metric.NewHistTail(e.qTail(processed, false)).HqUpper()
		}
		// Section 5.2: Hq cannot prune until T(q⁻) > T(q⁺) (κ ≤ T(q⁻), and
		// a candidate is pruned only when its zero-floor best case
		// S⁻ + T(q⁺) < κ, which needs κ > T(q⁺)).
		if !e.opts.DisableFutileSkip && e.processedQ <= tq {
			stat.Skipped = true
			stat.Candidates = before
			e.appendStep(stat)
			return
		}
		kappa := topk.KthLargestWith(sc.kthHeap(), e.score, e.k) // κmin over Smin = S⁻
		for ci := range keep {
			keep[ci] = e.score[ci]+tq >= kappa
		}
	case Hh:
		tail := metric.NewHistTail(e.qTail(processed, false))
		// In subspace mode the tracked tail mass covers all dimensions, an
		// overestimate of the subspace tail: the upper bound stays valid
		// but the Eq. 8 lower bound would not, so it falls back to zero.
		subspace := len(e.opts.Dims) > 0
		smin := zeroed(sc.aux, before)
		sc.aux = smin
		for ci := range smin {
			lo := 0.0
			if !subspace {
				lo = tail.HhLower(e.tails[ci])
			}
			smin[ci] = e.score[ci] + lo
		}
		kappa := topk.KthLargestWith(sc.kthHeap(), smin, e.k)
		for ci := range keep {
			keep[ci] = e.score[ci]+tail.HhUpper(e.tails[ci]) >= kappa
		}
	case Eq:
		var bound float64
		if len(e.weights) > 0 {
			bound = sc.wt.Reset(e.qTail(processed, true), e.wTail(processed)).UpperConst()
		} else {
			tail := sc.euc.Reset(e.qTail(processed, false))
			if e.opts.NormalizedData {
				bound = tail.EqUpperNormalized()
			} else {
				bound = tail.EqUpper()
			}
		}
		// Smin = S⁻; Smax = S⁻ + bound: κmax = (k-th smallest S⁻) + bound.
		kappa := topk.KthSmallestWith(sc.kthHeap(), e.score, e.k) + bound
		for ci := range keep {
			keep[ci] = e.score[ci] <= kappa
		}
	case Ev:
		if len(e.weights) > 0 {
			tail := sc.wt.Reset(e.qTail(processed, true), e.wTail(processed))
			smax := zeroed(sc.aux, before)
			sc.aux = smax
			for ci := range smax {
				smax[ci] = e.score[ci] + tail.Upper(e.tails[ci])
			}
			kappa := topk.KthSmallestWith(sc.kthHeap(), smax, e.k)
			for ci := range keep {
				keep[ci] = e.score[ci]+tail.Lower(e.tails[ci]) <= kappa
			}
		} else {
			tail := sc.euc.Reset(e.qTail(processed, false))
			smax := zeroed(sc.aux, before)
			sc.aux = smax
			for ci := range smax {
				smax[ci] = e.score[ci] + tail.EvUpper(e.tails[ci])
			}
			kappa := topk.KthSmallestWith(sc.kthHeap(), smax, e.k)
			for ci := range keep {
				keep[ci] = e.score[ci]+tail.EvLower(e.tails[ci]) <= kappa
			}
		}
	}

	e.compact(keep)
	stat.Candidates = len(e.cands)
	stat.Pruned = before - len(e.cands)
	e.appendStep(stat)
	if len(e.cands) <= e.k && e.stats.DimsUntilK == 0 {
		e.stats.DimsUntilK = processed
	}
}

// appendStep logs one pruning iteration, keeping the scratch-backed step
// buffer's growth for reuse.
func (e *engine) appendStep(stat StepStat) {
	e.stats.Steps = append(e.stats.Steps, stat)
	e.sc.steps = e.stats.Steps
}

// compact removes pruned candidates from the aligned slices in place.
func (e *engine) compact(keep []bool) {
	out := 0
	for ci, ok := range keep {
		if !ok {
			continue
		}
		e.cands[out] = e.cands[ci]
		e.score[out] = e.score[ci]
		if e.needTails {
			e.tails[out] = e.tails[ci]
		}
		out++
	}
	e.cands = e.cands[:out]
	e.score = e.score[:out]
	if e.needTails {
		e.tails = e.tails[:out]
	}
}

// finish ranks the surviving candidates by their now-exact scores. The
// result list is scratch-backed: valid until the Scratch's next search.
func (e *engine) finish() Result {
	h := e.sc.outHeap(e.k, !e.opts.Criterion.Distance())
	for ci, id := range e.cands {
		h.Push(id, e.score[ci])
	}
	e.sc.results = h.AppendResults(e.sc.results[:0])
	return Result{Results: e.sc.results, Stats: e.stats}
}

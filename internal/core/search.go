package core

import (
	"math"

	"bond/internal/bitmap"
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
// engine per segment, carries the running k-th best from one segment into
// the next, and additionally skips whole segments via their synopses.
func Search(s Source, q []float64, opts Options) (Result, error) {
	if err := opts.validate(s, q); err != nil {
		return Result{}, err
	}
	var qs Query
	qs.Init(q, opts)
	e := newEngine(s, &qs, opts.Exclude, 0, false, nil)
	if e == nil {
		return Result{}, ErrNoCandidates
	}
	e.run()
	res := e.finish()
	res.Stats.SegmentsSearched = 1
	return res, nil
}

// Query is the query-scoped half of a BOND search: what Algorithm 2 derives
// from the query and the options alone — effective weights, zero-weight
// dimensions, the processing order, T(q⁻) per position, and the tail bounds
// per position, memoised as pruning steps first ask for them. Init builds
// it once and every segment's engine reads it, so a query over many
// segments sorts its dimensions and prepares each tail bound once. A Query
// serves one goroutine at a time and keeps its buffers across Init calls.
type Query struct {
	q         []float64
	opts      Options
	weights   []float64 // effective weights (synthesized from Dims for distance criteria)
	order     []int     // processing order over effective dimensions
	zeroDims  []int     // zero-weight dimensions, permanent tail residents
	needTails bool

	// procQ[p] is T(q⁻) over order[:p] (weighted for weighted histogram
	// intersection, so the futility test compares like with like).
	procQ []float64
	// slack widens T(q⁺) when a histogram bound is tested against the
	// carried κ, see pruneStep.
	slack float64

	bounds       []tailBound // indexed by dimensions processed
	wbuf         []float64   // backing of synthesized weights
	qtail, wtail []float64   // tail-bound staging
	euc          metric.EucTail
	wt           metric.WeightedTail
}

// tailBound is the tail-bound state at one position of the processing
// order: the query-only bound on S(v⁺,q⁺) every criterion uses, and the
// per-vector bound tables the Hh and Ev criteria evaluate per candidate.
type tailBound struct {
	ready bool
	c     float64 // T(q⁺) for Hq/Hh, the Eq. 10 upper constant for Eq/Ev
	hist  metric.HistTail
	euc   *metric.EucTail      // Ev only
	wt    *metric.WeightedTail // weighted Ev only
}

// Init prepares the state for one query. opts must already be validated.
func (qs *Query) Init(q []float64, opts Options) {
	qs.q, qs.opts = q, opts
	qs.needTails = opts.Criterion == Hh || opts.Criterion == Ev

	qs.weights = opts.Weights
	if len(qs.weights) == 0 && len(opts.Dims) > 0 && opts.Criterion.Distance() {
		// A subspace query is weighted search with 0/1 weights (Section 8.1).
		qs.wbuf = zeroed(qs.wbuf, len(q))
		for _, d := range opts.Dims {
			qs.wbuf[d] = 1
		}
		qs.weights = qs.wbuf
	}
	qs.order = buildOrderInto(grow(qs.order, len(q)),
		q, qs.weights, opts.Dims, opts.Order, opts.Seed, opts.Criterion.Distance())
	qs.zeroDims = qs.zeroDims[:0]
	for d, w := range qs.weights {
		if w == 0 {
			qs.zeroDims = append(qs.zeroDims, d)
		}
	}

	total := len(qs.order)
	histWeighted := !opts.Criterion.Distance() && len(qs.weights) > 0
	qs.procQ = append(grow(qs.procQ, total+1), 0)
	for p, d := range qs.order {
		qd := q[d]
		if histWeighted {
			qd *= qs.weights[d]
		}
		qs.procQ = append(qs.procQ, qs.procQ[p]+qd)
	}
	// A score is a left-to-right float sum of up to total non-negative
	// terms, each at most its term of T(q); S⁻ + T(q⁺) sums the same terms
	// in another association. Either can round 2⁻⁵³ per addition away from
	// the other, so this much extra tail keeps S⁻ + T(q⁺) an upper bound on
	// the final score bit for bit, not only mathematically.
	qs.slack = float64(4*(total+2)) * 0x1p-53 * qs.procQ[total]

	if cap(qs.bounds) < total+1 {
		qs.bounds = make([]tailBound, total+1)
	}
	qs.bounds = qs.bounds[:total+1]
	for i := range qs.bounds {
		qs.bounds[i].ready = false
	}
}

// bound returns the tail bounds after p processed dimensions, preparing
// them on first use.
func (qs *Query) bound(p int) *tailBound {
	b := &qs.bounds[p]
	if b.ready {
		return b
	}
	b.ready = true
	weighted := len(qs.weights) > 0
	if !qs.opts.Criterion.Distance() && weighted {
		// Weighted tail bound: Σ w_i·min(h_i,q_i) ≤ Σ w_i·q_i over the
		// remaining dimensions (zero-weight ones contribute nothing).
		b.c = 0
		for _, d := range qs.order[p:] {
			b.c += qs.weights[d] * qs.q[d]
		}
		return b
	}
	qt, wt := qs.tail(p)
	switch {
	case !qs.opts.Criterion.Distance():
		b.hist = metric.NewHistTail(qt)
		b.c = b.hist.HqUpper()
	case weighted:
		tbl := &qs.wt // without per-vector bounds only the constant is kept
		if qs.needTails {
			if b.wt == nil {
				b.wt = new(metric.WeightedTail)
			}
			tbl = b.wt
		}
		b.c = tbl.Reset(qt, wt).UpperConst()
	default:
		tbl := &qs.euc
		if qs.needTails {
			if b.euc == nil {
				b.euc = new(metric.EucTail)
			}
			tbl = b.euc
		}
		b.c = tbl.Reset(qt).EqUpper()
		if qs.opts.NormalizedData {
			b.c = tbl.EqUpperNormalized()
		}
	}
	return b
}

// tail gathers the query values of the unprocessed dimensions and, for a
// weighted query, their weights, the permanent zero-weight residents last.
func (qs *Query) tail(processed int) (q, w []float64) {
	q, w = qs.qtail[:0], qs.wtail[:0]
	for _, d := range qs.order[processed:] {
		q = append(q, qs.q[d])
		if len(qs.weights) > 0 {
			w = append(w, qs.weights[d])
		}
	}
	for _, d := range qs.zeroDims {
		q, w = append(q, qs.q[d]), append(w, 0)
	}
	qs.qtail, qs.wtail = q, w
	return q, w
}

// engine holds the per-segment state of one search: the candidate ids,
// their partial scores S⁻, and (for per-vector criteria) their remaining
// masses T(v⁺). The three slices stay index-aligned through every
// compaction and are backed by the engine's Scratch.
type engine struct {
	s  Source
	qs *Query
	k  int

	// kappa is the carried κ: an exact k-th best score already found
	// elsewhere in the collection. Without one (hasKappa false) it is none,
	// the κ that rules nothing out: +Inf for distances, −Inf otherwise.
	kappa, none float64
	hasKappa    bool

	cands []int
	score []float64
	tails []float64 // T(v⁺); only maintained when qs.needTails

	stats Stats
	sc    *Scratch
}

// carryDisabled makes every search ignore its carried κ. Tests flip it to
// measure what the carry saves; nothing else writes it.
var carryDisabled bool

// newEngine initializes the engine inside sc (nil allocates privately), so
// a pooled Scratch makes successive per-segment searches allocation-free.
// It returns nil when the source holds no eligible candidate.
func newEngine(s Source, qs *Query, exclude *bitmap.Bitmap, kappa float64, hasKappa bool, sc *Scratch) *engine {
	if sc == nil {
		sc = &Scratch{}
	}
	cands := sc.liveCandidates(s, exclude)
	if len(cands) == 0 {
		return nil
	}
	e := &sc.eng
	*e = engine{s: s, qs: qs, sc: sc, cands: cands, k: min(qs.opts.K, len(cands)),
		kappa: kappa, none: math.Inf(-1), hasKappa: hasKappa && !carryDisabled}
	if qs.opts.Criterion.Distance() {
		e.none = math.Inf(1)
	}
	if !e.hasKappa {
		e.kappa = e.none
	}

	sc.score = zeroed(sc.score, len(cands))
	e.score = sc.score
	if qs.needTails {
		totals := s.Totals()
		sc.tails = grow(sc.tails, len(cands))[:len(cands)]
		e.tails = sc.tails
		for i, id := range cands {
			e.tails[i] = totals[id]
		}
	}
	e.stats.Steps = sc.steps[:0]
	return e
}

// run is the Algorithm 2 loop: accumulate a batch of m columns, derive
// bounds, prune, repeat. Once the candidate set is down to k, the loop
// keeps accumulating (each remaining column is read for only k vectors,
// via positional lookup) so the returned scores are exact. Under a carried
// κ the set can shrink below k, to nothing: the loop then stops reading.
func (e *engine) run() {
	total := len(e.qs.order)
	step := e.qs.opts.Step
	for processed := 0; processed < total && len(e.cands) > 0; {
		processed, step = e.stepOnce(processed, step)
	}
	e.stats.FinalCandidates = len(e.cands)
}

// stepOnce executes one iteration of the loop: accumulate a batch, then
// prune (unless the columns are exhausted, or the candidate set is already
// at k and no carried κ could shrink it further). It returns the new
// position and the next stride, which AdaptiveStep may have widened
// (Section 5.2's dynamic-m variant: once a pruning attempt removes almost
// nothing, the per-step overhead no longer pays, so the stride doubles; a
// productive step resets it).
func (e *engine) stepOnce(processed, step int) (int, int) {
	opts := &e.qs.opts
	total := len(e.qs.order)
	next := min(processed+step, total)
	e.accumulate(processed, next)
	if next >= total || (len(e.cands) <= e.k && !e.hasKappa) {
		return next, step
	}
	before := len(e.cands)
	e.pruneStep(next)
	if opts.AdaptiveStep {
		prunedFrac := float64(before-len(e.cands)) / float64(before)
		if prunedFrac < opts.AdaptiveThreshold {
			step *= 2
		} else {
			step = opts.Step
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
	qs := e.qs
	dims := qs.order[from:to]
	hist := !qs.opts.Criterion.Distance()
	weighted := len(qs.weights) > 0
	e.stats.ValuesScanned += int64(len(dims)) * int64(len(e.cands))

	for start := 0; start < len(e.cands); start += accBlock {
		end := min(start+accBlock, len(e.cands))
		cb := e.cands[start:end]
		sb := e.score[start:end]
		var tb []float64
		if qs.needTails {
			tb = e.tails[start:end]
		}
		for _, d := range dims {
			col := e.s.Column(d)
			qd := qs.q[d]
			switch {
			case hist && weighted:
				// Weighted histogram intersection (Section 8.2): w·min(h, q).
				kernel.AccWMinQ(sb, col, cb, qd, qs.weights[d])
			case hist && qs.needTails:
				kernel.AccMinQTails(sb, tb, col, cb, qd)
			case hist:
				kernel.AccMinQ(sb, col, cb, qd)
			case weighted && qs.needTails:
				kernel.AccWSqDistTails(sb, tb, col, cb, qd, qs.weights[d])
			case weighted:
				kernel.AccWSqDist(sb, col, cb, qd, qs.weights[d])
			case qs.needTails:
				kernel.AccSqDistTails(sb, tb, col, cb, qd)
			default:
				kernel.AccSqDist(sb, col, cb, qd)
			}
		}
	}
}

// pruneStep is step 2–4 of Algorithm 2: derive Smin and Smax from the
// partial scores and tail bounds, determine κ with a kfetch, and remove
// every candidate whose best case cannot reach it.
//
// Two κ are in play. The local one (lk) is the paper's: the k-th best worst
// case among this segment's candidates, which exists only above k
// candidates. The carried one (ck) is an exact score from other segments.
// A candidate goes when either rules it out — strictly, so one that could
// still tie stays and the id tie-break is left to the final ranking. Being
// exact, the carried κ is only compared with the query-only best case (S⁻
// for distances, S⁻ + T(q⁺) + slack for intersections), which bounds the
// final float score bit for bit; the tail masses of Hh and Ev are
// maintained by subtraction and could round a tying candidate out.
func (e *engine) pruneStep(processed int) {
	qs, sc := e.qs, e.sc
	stat := StepStat{DimsProcessed: processed}
	before := len(e.cands)
	b := qs.bound(processed)
	local := before > e.k
	lk, ck := e.none, e.kappa

	out := 0
	switch qs.opts.Criterion {
	case Hq:
		// Section 5.2: the local κ cannot prune until T(q⁻) > T(q⁺) (κ ≤
		// T(q⁻), and a candidate is pruned only when its zero-floor best
		// case S⁻ + T(q⁺) < κ, which needs κ > T(q⁺)).
		if !qs.opts.DisableFutileSkip && qs.procQ[processed] <= b.c {
			local = false
		}
		if !local && !e.hasKappa {
			stat.Skipped = true
			stat.Candidates = before
			e.appendStep(stat)
			return
		}
		// Likewise against the carried κ: until T(q⁻) passes it, whatever
		// the local κ would prune the carried one prunes too.
		if local && qs.procQ[processed]+qs.slack > ck {
			lk, sc.kbuf = topk.KthLargest(e.score, e.k, sc.kbuf) // κmin over Smin = S⁻
		}
		tq, tqc := b.c, b.c+qs.slack
		for ci, s := range e.score {
			e.cands[out], e.score[out] = e.cands[ci], s
			out += b2i(s+tq >= lk) & b2i(s+tqc >= ck)
		}
	case Eq:
		// Smin = S⁻; Smax = S⁻ + bound: κmax = (k-th smallest S⁻) + bound,
		// which is at least bound — not worth a kfetch while the carried κ
		// is below that.
		if local && b.c < ck {
			lk, sc.kbuf = topk.KthSmallest(e.score, e.k, sc.kbuf)
			lk += b.c
		}
		kappa := min(lk, ck)
		for ci, s := range e.score {
			e.cands[out], e.score[out] = e.cands[ci], s
			out += b2i(s <= kappa)
		}
	case Hh:
		if local {
			// In subspace mode the tracked tail mass covers all dimensions,
			// an overestimate of the subspace tail: the upper bound stays
			// valid but the Eq. 8 lower bound would not, so it falls back to
			// zero.
			subspace := len(qs.opts.Dims) > 0
			smin := grow(sc.aux, before)[:before]
			sc.aux = smin
			for ci, s := range e.score {
				smin[ci] = s
				if !subspace {
					smin[ci] += b.hist.HhLower(e.tails[ci])
				}
			}
			lk, sc.kbuf = topk.KthLargest(smin, e.k, sc.kbuf)
		}
		tqc := b.c + qs.slack
		for ci, s := range e.score {
			if t := e.tails[ci]; s+b.hist.HhUpper(t) >= lk && s+tqc >= ck {
				e.cands[out], e.score[out], e.tails[out] = e.cands[ci], s, t
				out++
			}
		}
	case Ev:
		var upper, lower func(float64) float64
		if len(qs.weights) > 0 {
			upper, lower = b.wt.Upper, b.wt.Lower
		} else {
			upper, lower = b.euc.EvUpper, b.euc.EvLower
		}
		if local {
			smax := grow(sc.aux, before)[:before]
			sc.aux = smax
			for ci, s := range e.score {
				smax[ci] = s + upper(e.tails[ci])
			}
			lk, sc.kbuf = topk.KthSmallest(smax, e.k, sc.kbuf)
		}
		for ci, s := range e.score {
			if t := e.tails[ci]; s+lower(t) <= lk && s <= ck {
				e.cands[out], e.score[out], e.tails[out] = e.cands[ci], s, t
				out++
			}
		}
	}
	e.cands, e.score = e.cands[:out], e.score[:out]
	if qs.needTails {
		e.tails = e.tails[:out]
	}

	stat.Candidates = out
	stat.Pruned = before - out
	e.appendStep(stat)
	if out <= e.k && e.stats.DimsUntilK == 0 {
		e.stats.DimsUntilK = processed
	}
}

// b2i is 1 for true, 0 for false; it compiles to a flag move, which keeps
// the prune-and-compact passes above free of data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendStep logs one pruning iteration, keeping the scratch-backed step
// buffer's growth for reuse.
func (e *engine) appendStep(stat StepStat) {
	e.stats.Steps = append(e.stats.Steps, stat)
	e.sc.steps = e.stats.Steps
}

// finish ranks the surviving candidates by their now-exact scores. A
// value-only kfetch (and the carried κ) first tells which of them can rank
// at all, so the id-carrying heap sees about k candidates, ties included,
// rather than every survivor. The result list is scratch-backed: valid
// until the Scratch's next search.
func (e *engine) finish() Result {
	sc := e.sc
	dist := e.qs.opts.Criterion.Distance()
	kappa := e.kappa
	if len(e.cands) > e.k {
		kth := topk.KthLargest
		if dist {
			kth = topk.KthSmallest
		}
		var local float64
		if local, sc.kbuf = kth(e.score, e.k, sc.kbuf); CannotBeat(kappa, local, dist) {
			kappa = local
		}
	}
	h := sc.outHeap(e.k, !dist)
	for ci, id := range e.cands {
		if s := e.score[ci]; !CannotBeat(s, kappa, dist) {
			h.Push(id, s)
		}
	}
	sc.results = h.AppendResults(sc.results[:0])
	return Result{Results: sc.results, Stats: e.stats}
}

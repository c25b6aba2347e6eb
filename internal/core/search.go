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
	weights   []float64    // effective weights (synthesized from Dims for distance criteria)
	order     []int        // processing order over effective dimensions
	orderSc   orderScratch // buildOrderInto's sort staging
	zeroDims  []int        // zero-weight dimensions, permanent tail residents
	needTails bool

	// qOrd[p] and wOrd[p] are q and the effective weight of dimension
	// order[p]: what the run kernels take for the columns order[from:to].
	qOrd, wOrd []float64

	// procQ[p] is T(q⁻) over order[:p] (weighted for weighted histogram
	// intersection, so the futility test compares like with like).
	procQ []float64
	// slack widens T(q⁺) when a histogram bound is tested against the
	// carried κ, and any bound when the score it is tested against was
	// summed in another order, see pruneStep.
	slack float64
	// canonical reports that the results' scores are summed afresh in
	// storage order (see engine.canonicalRows): a query whose processing
	// order is not storage order.
	canonical bool

	bounds       []tailBound // indexed by dimensions processed
	wbuf         []float64   // backing of synthesized weights
	qtail, wtail []float64   // tail-bound staging
	wt           metric.WeightedTail

	// eqTail[p] is Eq's tail constant after p processed dimensions (see
	// eqUpper); built on first use.
	eqTail  []float64
	eqReady bool
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
	qs.order = buildOrderInto(grow(qs.order, len(q)), &qs.orderSc,
		q, qs.weights, opts.Dims, opts.Order, opts.Seed, opts.Criterion.Distance(), opts.Moments)
	qs.zeroDims = qs.zeroDims[:0]
	for d, w := range qs.weights {
		if w == 0 {
			qs.zeroDims = append(qs.zeroDims, d)
		}
	}

	total := len(qs.order)
	histWeighted := !opts.Criterion.Distance() && len(qs.weights) > 0
	qs.procQ = append(grow(qs.procQ, total+1), 0)
	qs.qOrd, qs.wOrd = grow(qs.qOrd, total), grow(qs.wOrd, total)
	for p, d := range qs.order {
		qd := q[d]
		qs.qOrd = append(qs.qOrd, qd)
		if len(qs.weights) > 0 {
			qs.wOrd = append(qs.wOrd, qs.weights[d])
		}
		if histWeighted {
			qd *= qs.weights[d]
		}
		qs.procQ = append(qs.procQ, qs.procQ[p]+qd)
	}
	// A score is a left-to-right float sum of up to total non-negative
	// terms, each at most its term of T(q) — of Σ w·max(q, 1−q)² for a
	// distance; S⁻ + T(q⁺), or a score summed in another order, adds the
	// same terms in another association. Either can round 2⁻⁵³ per
	// addition away from the other, so this much slack keeps a bound
	// compared across the two sound bit for bit, not only mathematically.
	mass := qs.procQ[total]
	if opts.Criterion.Distance() {
		mass = 0
		for p, qd := range qs.qOrd {
			m := max(qd, 1-qd)
			if len(qs.wOrd) > 0 {
				mass += qs.wOrd[p] * m * m
			} else {
				mass += m * m
			}
		}
	}
	qs.slack = float64(4*(total+2)) * 0x1p-53 * mass
	qs.canonical = opts.Order != OrderNatural

	if cap(qs.bounds) < total+1 {
		qs.bounds = make([]tailBound, total+1)
	}
	qs.bounds = qs.bounds[:total+1]
	for i := range qs.bounds {
		qs.bounds[i].ready = false
	}
	qs.eqReady = false
}

// InitExact prepares the state for an exact scan: the same engine run as
// one step over every effective dimension in storage order — the summation
// order the compressed and VA-File refinements use, so a segment answers
// identically whichever of the three ranked it — with nothing to prune by
// but the carried κ at the final ranking. The per-vector criteria rank like
// their query-only twins, so no tails are kept.
func (qs *Query) InitExact(q []float64, opts Options) {
	opts.Order, opts.Step, opts.AdaptiveStep = OrderNatural, max(len(q), 1), false
	if opts.Criterion.Distance() {
		opts.Criterion = Eq
	} else {
		opts.Criterion = Hq
	}
	qs.Init(q, opts)
}

// Forget drops what the state holds of its last query — the query vector
// and the options' Exclude, Weights and Dims, which are the caller's — and
// keeps the buffers for the next Init.
func (qs *Query) Forget() {
	qs.q, qs.opts, qs.weights = nil, Options{}, nil
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
	distance := qs.opts.Criterion.Distance()
	switch {
	case !distance && weighted:
		// Weighted tail bound: Σ w_i·min(h_i,q_i) ≤ Σ w_i·q_i over the
		// remaining dimensions (zero-weight ones contribute nothing).
		b.c = 0
		for _, d := range qs.order[p:] {
			b.c += qs.weights[d] * qs.q[d]
		}
		return b
	case distance && !weighted && !qs.needTails:
		b.c = qs.eqUpper(p)
		return b
	}
	qt, wt := qs.tail(p)
	switch {
	case !distance:
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
		// Σ w·q² plus the gains rounds apart from a score's float sum of
		// its w·max(q, 1−q)² terms, so it gets eqUpper's slack.
		b.c = tbl.Reset(qt, wt).UpperConst() + qs.slack
	default:
		if b.euc == nil {
			b.euc = new(metric.EucTail)
		}
		b.c = b.euc.Reset(qt).EqUpper()
		if qs.opts.NormalizedData {
			b.c = b.euc.EqUpperNormalized()
		}
	}
	return b
}

// eqUpper is Eq's tail constant after p processed dimensions: Eq. 10's
// Σ max(q, 1−q)² over the unprocessed dimensions — or, for NormalizedData,
// Σ q² plus the gain of putting all of a vector's unit mass on the smallest
// unprocessed q (metric.EucTail's normalized cap) — widened by a rounding
// slack. The first call fills every position's constant in one backward
// pass over the processing order.
//
// A vector's score is a left-to-right float sum of at most len(order)
// non-negative terms, each at most its term of Σ max(q, 1−q)², and the
// constant is a float sum of those bounds in another association, so with
// Query.slack added it bounds the float tail bit for bit, not only
// mathematically.
func (qs *Query) eqUpper(p int) float64 {
	if !qs.eqReady {
		n := len(qs.qOrd)
		tail := grow(qs.eqTail, n+1)[:n+1]
		var maxSq, sq float64
		qmin := math.Inf(1)
		for i := n - 1; i >= 0; i-- {
			q := qs.qOrd[i]
			m := max(q, 1-q)
			maxSq += m * m
			sq += q * q
			qmin = min(qmin, q)
			tail[i] = maxSq
			if qs.opts.NormalizedData {
				tail[i] = sq + max((1-qmin)*(1-qmin)-qmin*qmin, 0)
			}
		}
		tail[n] = 0
		for i := range tail {
			tail[i] += qs.slack
		}
		qs.eqTail, qs.eqReady = tail, true
	}
	return qs.eqTail[p]
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

// engine holds the per-segment state of one search, which runs in the
// paper's two phases (Section 6.1). While most of the segment is still a
// candidate the state is dense: score (and tails) are indexed by row, whole
// columns are folded by the contiguous run kernels, and a row that is
// deleted, excluded or pruned holds the score none instead of being
// compacted out. The first prune that leaves fewer than denseMin live rows
// compacts once into the list phase: cands holds the surviving ids, score
// and tails are index-aligned with it through every later compaction, and
// columns are read by positional lookup. A row's score receives the same
// additions in the same order in either phase, and κ is a function of the
// multiset of live scores, so where the switch falls changes no score bit,
// no pruning decision and no step log — only ValuesScanned, which counts
// the cells actually read and so every row of a dense step.
type engine struct {
	s  Source
	qs *Query
	k  int

	// kappa is the carried κ: an exact k-th best score already found
	// elsewhere in the collection. Without one (hasKappa false) it is none,
	// the κ that rules nothing out and the score that cannot rank: +Inf for
	// distances, −Inf otherwise.
	kappa, none float64
	hasKappa    bool

	dense    bool
	denseMin int // live rows below which the dense phase ends
	live     int // candidates still in play, in either phase

	cands []int
	score []float64
	tails []float64 // T(v⁺); only maintained when qs.needTails

	stats Stats
	sc    *Scratch
}

// carryDisabled makes every search ignore its carried κ, denseDisabled
// makes every search start in the list phase, and futileSkipDisabled forces
// a pruning attempt after every step even when the Section 5.2 analysis
// shows it cannot remove anything. Tests flip them to measure what the
// carry saves, to hold the two phases to the same bits and to compare the
// criteria's bounds step by step; nothing else writes them.
var carryDisabled, denseDisabled, futileSkipDisabled bool

// denseFrac is the live fraction of a segment's rows below which the dense
// phase hands over to the candidate list. Per cell the run kernels cost
// 0.30–0.65 of the gather kernels (BenchmarkAcc*{Run,Gather}* in package
// kernel: SqDist and MinQ 0.13–0.16 vs 0.40–0.43 ns from L2, 0.30 vs 0.52
// streamed; the weighted and the tails-maintaining variants 0.15–0.18 vs
// 0.42–0.48 from L2, a ratio of 0.35–0.40), and a dense step reads every
// row where the list reads the live ones, so the two break even at a live
// fraction of 0.3–0.65; one half sits inside that band for every variant
// and both cache levels. On the 16 × 1 000 × 64 uniform shape 92 % of the
// cells a query reads are read at or above it. Inside a query the gathers
// cost more than in their micro-benchmark: 1–2 ns per cell, measured on
// the Corel-like Hq shape (16 000 × 32, segments of 1 000), where the time
// follows the cache lines touched more than the cells read. Values from
// 0.1 to 0.5 measured alike there.
const denseFrac = 0.5

// newEngine initializes the engine inside sc (nil allocates privately), so
// a pooled Scratch makes successive per-segment searches allocation-free.
// It returns nil when the source holds no eligible candidate.
func newEngine(s Source, qs *Query, exclude *bitmap.Bitmap, kappa float64, hasKappa bool, sc *Scratch) *engine {
	if sc == nil {
		sc = &Scratch{}
	}
	n := s.Len()
	live := countLive(s, exclude)
	if live == 0 {
		return nil
	}
	e := &sc.eng
	*e = engine{s: s, qs: qs, sc: sc, live: live, k: min(qs.opts.K, live),
		kappa: kappa, none: math.Inf(-1), hasKappa: hasKappa && !carryDisabled}
	if qs.opts.Criterion.Distance() {
		e.none = math.Inf(1)
	}
	if !e.hasKappa {
		e.kappa = e.none
	}
	e.denseMin = int(math.Ceil(denseFrac * float64(n)))
	e.dense = live >= e.denseMin && !denseDisabled

	var totals []float64
	if qs.needTails {
		totals = s.Totals()
	}
	if e.dense {
		sc.score = zeroed(sc.score, n)
		markDead(s, exclude, sc.score, e.none)
		if qs.needTails {
			sc.tails = append(grow(sc.tails, n), totals[:n]...)
		}
	} else {
		e.cands = sc.liveCandidates(s, exclude)
		sc.score = zeroed(sc.score, live)
		if qs.needTails {
			sc.tails = grow(sc.tails, live)[:live]
			for i, id := range e.cands {
				sc.tails[i] = totals[id]
			}
		}
	}
	e.score = sc.score
	if qs.needTails {
		e.tails = sc.tails
	}
	e.stats.Steps = sc.steps[:0]
	return e
}

// run is the Algorithm 2 loop: accumulate a batch of m columns, derive
// bounds, prune (unless the columns are exhausted, or the candidate set is
// already at k and no carried κ could shrink it further), repeat. Once the
// candidate set is down to k, the loop keeps accumulating (each remaining
// column is read for only k vectors, via positional lookup) so the returned
// scores are exact. Under a carried κ the set can shrink below k, to
// nothing: the loop then stops reading. AdaptiveStep may widen the stride
// (Section 5.2's dynamic-m variant: once a pruning attempt removes almost
// nothing, the per-step overhead no longer pays, so the stride doubles; a
// productive step resets it).
func (e *engine) run() {
	opts := &e.qs.opts
	total := len(e.qs.order)
	step := opts.Step
	for processed := 0; processed < total && e.live > 0; {
		next := min(processed+step, total)
		e.accumulate(processed, next)
		processed = next
		if next >= total || (e.live <= e.k && !e.hasKappa) {
			continue
		}
		before := e.live
		e.pruneStep(next)
		if opts.AdaptiveStep {
			if float64(before-e.live)/float64(before) < adaptiveThreshold {
				step *= 2
			} else {
				step = opts.Step
			}
		}
	}
	e.stats.FinalCandidates = e.live
}

// accBlock is the candidate-block width of the list phase's accumulation
// loop: a block of partial scores, tails, and candidate ids (≈48 KB) stays
// resident in L1/L2 while the step's m columns stream past it, instead of
// the whole score array being re-fetched once per column. The dense phase
// needs no such loop: its kernels keep 16 scores in registers across the
// step's columns.
const accBlock = 2048

// accumulate folds columns order[from:to] into the partial scores, and
// maintains the remaining masses for per-vector criteria. The inner loops
// are the package kernel's — the run kernels over whole columns in the
// dense phase, the gathers through the candidate list after it, dispatched
// once per (block, column) pair — unrolled, bounds-check-free, and
// branch-free; every score slot receives exactly one addition per column in
// the same order as the scalar loops this replaced, so scores are
// bit-identical.
func (e *engine) accumulate(from, to int) {
	qs := e.qs
	dims := qs.order[from:to]
	hist := !qs.opts.Criterion.Distance()
	weighted := len(qs.weights) > 0

	if e.dense {
		e.stats.ValuesScanned += int64(len(dims)) * int64(len(e.score))
		cols := e.sc.cols[:0]
		for _, d := range dims {
			cols = append(cols, e.s.Column(d))
		}
		q := qs.qOrd[from:to]
		var w []float64
		if weighted {
			w = qs.wOrd[from:to]
		}
		switch {
		case hist && weighted:
			kernel.AccWMinQRun(e.score, cols, q, w)
		case hist && qs.needTails:
			kernel.AccMinQTailsRun(e.score, e.tails, cols, q)
		case hist:
			kernel.AccMinQRun(e.score, cols, q)
		case weighted && qs.needTails:
			kernel.AccWSqDistTailsRun(e.score, e.tails, cols, q, w)
		case weighted:
			kernel.AccWSqDistRun(e.score, cols, q, w)
		case qs.needTails:
			kernel.AccSqDistTailsRun(e.score, e.tails, cols, q)
		default:
			kernel.AccSqDistRun(e.score, cols, q)
		}
		// A pooled scratch must not pin a segment's columns past the search.
		clear(cols)
		e.sc.cols = cols
		return
	}

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
// maintained by subtraction and could round a tying candidate out. A
// score reported in storage order (qs.canonical) can differ in its last
// bits from the sum S⁻ grows into, so there both κ are widened by the
// slack.
//
// Hq and Eq rank and filter by the partial score alone, so they apply the
// carried κ first, switch to the list if that leaves fewer than denseMin
// rows, and run the kfetch over the survivors only. This keeps exactly the
// rows the two κ together keep: a row the carried κ removes scores below
// every survivor (the test is monotone in S⁻), so above k survivors the k
// best partial scores are all among them, and at k or fewer the local κ
// removes none of them. Hh and Ev rank per-row bounds (HhLower, EvUpper)
// that are not monotone in S⁻, so their kfetch still sees every candidate
// and one pass applies both κ.
func (e *engine) pruneStep(processed int) {
	qs, sc := e.qs, e.sc
	stat := StepStat{DimsProcessed: processed}
	before := e.live
	b := qs.bound(processed)
	lk, ck := e.none, e.kappa
	var slack float64
	if qs.canonical {
		slack = qs.slack
	}

	switch qs.opts.Criterion {
	case Hq:
		// Section 5.2: the local κ cannot prune until T(q⁻) > T(q⁺) (κ ≤
		// T(q⁻), and a candidate is pruned only when its zero-floor best
		// case S⁻ + T(q⁺) < κ, which needs κ > T(q⁺)).
		local := futileSkipDisabled || qs.procQ[processed] > b.c
		if !local && !e.hasKappa {
			stat.Skipped = true
			stat.Candidates = before
			e.appendStep(stat)
			return
		}
		if e.hasKappa {
			e.keep(b.c+qs.slack, ck)
		}
		// Likewise against the carried κ: until T(q⁻) passes it, whatever
		// the local κ would prune the carried one prunes too.
		if local && e.live > e.k && qs.procQ[processed]+qs.slack > ck {
			lk, sc.kbuf = topk.KthLargest(e.score, e.k, sc.kbuf) // κmin over Smin = S⁻
			e.keep(b.c+slack, lk)
		}
	case Eq:
		if e.hasKappa {
			e.keep(0, ck+slack)
		}
		// Smin = S⁻; Smax = S⁻ + bound: κmax = (k-th smallest S⁻) + bound,
		// which is at least bound — not worth a kfetch while the carried κ
		// is below that.
		if e.live > e.k && b.c < ck {
			lk, sc.kbuf = topk.KthSmallest(e.score, e.k, sc.kbuf)
			e.keep(0, lk+b.c+slack)
		}
	case Hh:
		local := before > e.k
		if local {
			// In subspace mode the tracked tail mass covers all dimensions,
			// an overestimate of the subspace tail: the upper bound stays
			// valid but the Eq. 8 lower bound would not, so it falls back to
			// zero.
			subspace := len(qs.opts.Dims) > 0
			smin := grow(sc.aux, len(e.score))[:len(e.score)]
			sc.aux = smin
			for ci, s := range e.score {
				smin[ci] = s
				if !subspace {
					smin[ci] += b.hist.HhLower(e.tails[ci])
				}
			}
			lk, sc.kbuf = topk.KthLargest(smin, e.k, sc.kbuf)
		}
		// Every kfetch here runs over e.score as it stands. In the dense
		// phase that includes the dead rows, whose score none never ranks
		// among the k best of more than k live ones; and since a filter loop
		// runs only with lk or ck finite, a dead row fails it like any
		// pruned candidate.
		tqc := b.c + qs.slack
		lk -= slack
		out := 0
		for ci, s := range e.score {
			t := e.tails[ci]
			keep := s+b.hist.HhUpper(t) >= lk && s+tqc >= ck
			switch {
			case !e.dense && keep:
				e.cands[out], e.score[out], e.tails[out] = e.cands[ci], s, t
				out++
			case keep:
				out++
			case e.dense:
				e.score[ci] = e.none
			}
		}
		e.settle(out)
	case Ev:
		var upper, lower func(float64) float64
		if len(qs.weights) > 0 {
			upper, lower = b.wt.Upper, b.wt.Lower
		} else {
			upper, lower = b.euc.EvUpper, b.euc.EvLower
		}
		if before > e.k {
			smax := grow(sc.aux, len(e.score))[:len(e.score)]
			sc.aux = smax
			for ci, s := range e.score {
				smax[ci] = s + upper(e.tails[ci])
			}
			lk, sc.kbuf = topk.KthSmallest(smax, e.k, sc.kbuf)
		}
		lk, ck = lk+slack, ck+slack
		out := 0
		for ci, s := range e.score {
			t := e.tails[ci]
			keep := s+lower(t) <= lk && s <= ck
			switch {
			case !e.dense && keep:
				e.cands[out], e.score[out], e.tails[out] = e.cands[ci], s, t
				out++
			case keep:
				out++
			case e.dense:
				e.score[ci] = e.none
			}
		}
		e.settle(out)
	}

	stat.Candidates = e.live
	stat.Pruned = before - e.live
	e.appendStep(stat)
	if e.live <= e.k && e.stats.DimsUntilK == 0 {
		e.stats.DimsUntilK = processed
	}
}

// keep applies one query-only filter to the candidates: an Hq candidate
// stays when its partial score s has s + allow ≥ floor, an Eq one when
// s ≤ floor (allow is unused). The list phase moves the survivors up in
// order; the dense phase is keepDense.
func (e *engine) keep(allow, floor float64) {
	if e.dense {
		e.keepDense(allow, floor)
		return
	}
	out := 0
	if e.qs.opts.Criterion == Hq {
		for ci, s := range e.score {
			e.cands[out], e.score[out] = e.cands[ci], s
			out += b2i(s+allow >= floor)
		}
	} else {
		for ci, s := range e.score {
			e.cands[out], e.score[out] = e.cands[ci], s
			out += b2i(s <= floor)
		}
	}
	e.settle(out)
}

// compactProbe is how many rows keepDense filters in place before it
// picks its pass for the rest.
const compactProbe = 64

// keepDense is keep in the dense phase, where the filter and the switch
// to the candidate list can share one pass over the rows (the one-pass
// kernels, kernel.CompactReaching and CompactAtMost). Only a prune that
// leaves fewer than denseMin rows ends the dense phase, which is not known
// until every row is tested, so the first compactProbe rows are filtered
// in place (a pruned row holds none) and decide: if fewer than denseFrac of
// them stay, they are compacted and the one-pass kernel takes the rest;
// otherwise the rest is filtered in place too, as a prune that keeps most
// rows is cheapest done, and the switch, if it comes after all, is its own
// pass (compact). A one-pass prune that keeps denseMin rows after all puts
// them back in their rows (expand) and the dense phase goes on.
func (e *engine) keepDense(allow, floor float64) {
	hist := e.qs.opts.Criterion == Hq
	keepInPlace := func(score []float64) int {
		if hist {
			return kernel.KeepReaching(score, allow, floor, e.none)
		}
		return kernel.KeepAtMost(score, floor, e.none)
	}
	n := len(e.score)
	probe := min(n, compactProbe)
	out := keepInPlace(e.score[:probe])
	if float64(out) >= denseFrac*float64(probe) {
		e.settle(out + keepInPlace(e.score[probe:]))
		return
	}
	cands := grow(e.sc.cands, n)[:n]
	e.sc.cands = cands
	out = kernel.CompactLive(cands, e.score[:probe], nil, e.none)
	if hist {
		out = kernel.CompactReaching(cands, e.score, probe, out, allow, floor)
	} else {
		out = kernel.CompactAtMost(cands, e.score, probe, out, floor)
	}
	if out < e.denseMin {
		e.dense, e.live, e.cands, e.score = false, out, cands[:out], e.score[:out]
		return
	}
	e.expand(out, n)
	e.live = out
}

// expand undoes a compaction of the rows [0, n) into the first out slots
// of the scores and sc.cands: each survivor's score goes back to its row,
// and every other row of [0, n) holds none. Walking the slots backwards
// writes only rows at or after the slot being read.
func (e *engine) expand(out, n int) {
	next := n
	for i := out - 1; i >= 0; i-- {
		r, s := e.sc.cands[i], e.score[i]
		for j := r + 1; j < next; j++ {
			e.score[j] = e.none
		}
		e.score[r] = s
		next = r
	}
	for j := 0; j < next; j++ {
		e.score[j] = e.none
	}
}

// settle records that out candidates survived a filter: the list phase
// drops its tail, and the dense phase hands over to the list once fewer
// than denseMin rows are live.
func (e *engine) settle(out int) {
	e.live = out
	switch {
	case !e.dense:
		e.cands, e.score = e.cands[:out], e.score[:out]
		if e.tails != nil {
			e.tails = e.tails[:out]
		}
	case out < e.denseMin:
		e.compact()
	}
}

// compact ends the dense phase: the live rows' ids become the candidate
// list and their scores and tails move up to stay aligned with it, in one
// compress-store pass (kernel.CompactLive).
func (e *engine) compact() {
	cands := grow(e.sc.cands, len(e.score))[:len(e.score)]
	e.sc.cands = cands
	out := kernel.CompactLive(cands, e.score, e.tails, e.none)
	if e.tails != nil {
		e.tails = e.tails[:out]
	}
	e.dense, e.cands, e.score = false, cands[:out], e.score[:out]
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
// rather than every survivor. Under qs.canonical it sees them with their
// score summed in storage order (canonicalRows), and the κ they must reach
// is widened by the slack. The result list is scratch-backed: valid until
// the Scratch's next search.
func (e *engine) finish() Result {
	sc, qs := e.sc, e.qs
	dist := qs.opts.Criterion.Distance()
	kappa := e.kappa
	if e.live > e.k {
		kth := topk.KthLargest
		if dist {
			kth = topk.KthSmallest
		}
		var local float64
		if local, sc.kbuf = kth(e.score, e.k, sc.kbuf); CannotBeat(kappa, local, dist) {
			kappa = local
		}
	}
	switch {
	case qs.canonical && dist:
		kappa += qs.slack
	case qs.canonical:
		kappa -= qs.slack
	}
	rows, scores := sc.rows[:0], sc.rowScores[:0]
	if e.dense {
		for r, s := range e.score {
			if s != e.none && !CannotBeat(s, kappa, dist) {
				rows, scores = append(rows, r), append(scores, s)
			}
		}
	} else {
		for ci, id := range e.cands {
			if s := e.score[ci]; !CannotBeat(s, kappa, dist) {
				rows, scores = append(rows, id), append(scores, s)
			}
		}
	}
	if qs.canonical && len(rows) > 0 {
		e.canonicalRows(rows, scores)
	}
	sc.rows, sc.rowScores = rows, scores
	h := sc.outHeap(e.k, !dist)
	for i, r := range rows {
		h.Push(r, scores[i])
	}
	sc.results = h.AppendResults(sc.results[:0])
	return Result{Results: sc.results, Stats: e.stats}
}

// canonicalRows overwrites scores[i] with row rows[i]'s score as an exact
// scan sums it: the terms (v − q)² or min(v, q), times w when weighted, of
// the effective dimensions — Dims as listed, or every dimension, less zero
// weights — in that order from 0, with the run kernels' expressions. BOND
// adds the same terms in its processing order, which depends on the query
// and, under Options.Moments, on the collection's values, so two layouts of
// the same rows (a shard and the whole collection, or two segmentations)
// would round a score differently in its last bits; this sum is the same
// bits whatever order found the row, and the exact path's. It runs while
// the segment's columns are still in cache, a column at a time over the
// rows.
func (e *engine) canonicalRows(rows []int, scores []float64) {
	qs := e.qs
	clear(scores)
	w := qs.opts.Weights
	hist := !qs.opts.Criterion.Distance()
	add := func(d int) {
		if len(w) > 0 && w[d] == 0 {
			return
		}
		col, qd := e.s.Column(d), qs.q[d]
		switch {
		case hist && len(w) == 0:
			for i, r := range rows {
				scores[i] += min(col[r], qd)
			}
		case hist:
			for i, r := range rows {
				scores[i] += w[d] * min(col[r], qd)
			}
		case len(w) == 0:
			for i, r := range rows {
				diff := col[r] - qd
				scores[i] += diff * diff
			}
		default:
			for i, r := range rows {
				diff := col[r] - qd
				scores[i] += w[d] * diff * diff
			}
		}
	}
	if len(qs.opts.Dims) > 0 {
		for _, d := range qs.opts.Dims {
			add(d)
		}
		return
	}
	for d := range qs.q {
		add(d)
	}
}

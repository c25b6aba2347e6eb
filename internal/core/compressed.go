package core

import (
	"errors"

	"bond/internal/kernel"
	"bond/internal/metric"
	"bond/internal/topk"
	"bond/internal/vstore"
)

// CompressedResult is the outcome of a filter-and-refine search on 8-bit
// fragments (Section 7.4): the exact top-k, the candidate set the filter
// step produced, and separate work counters for the two phases — the
// quantities Table 4 reports.
type CompressedResult struct {
	Results []topk.Result
	// FilterCandidates is the candidate-set size after the filter phase.
	FilterCandidates int
	// FilterStats describes the pruning run on the compressed fragments.
	FilterStats Stats
	// RefineValuesScanned counts exact coefficients read during refinement.
	RefineValuesScanned int64
}

// ValidateCompressed rejects option combinations the compressed and
// VA-File access paths do not support: they answer full-space unweighted Hq
// and Eq queries only.
func ValidateCompressed(opts Options) error {
	if len(opts.Weights) > 0 || len(opts.Dims) > 0 {
		return errCompressedShape
	}
	if opts.Criterion != Hq && opts.Criterion != Eq {
		return errCompressedCriterion
	}
	return nil
}

// The planner asks ValidateCompressed about every query to learn whether
// the filter paths are eligible, so its refusals are preallocated.
var (
	errCompressedShape     = errors.New("core: compressed search supports full-space unweighted queries only")
	errCompressedCriterion = errors.New("core: compressed search supports criteria Hq and Eq only")
)

// FilterCompressed runs only the filter phase of a compressed search and
// returns the surviving candidate ids (a superset of the true top-k) with
// the filter statistics. Table 4 times this phase against a VA-File scan.
func FilterCompressed(s Source, qs *vstore.QuantStore, q []float64, opts Options) ([]int, Stats, error) {
	if err := opts.validate(s, q); err != nil {
		return nil, Stats{}, err
	}
	if err := ValidateCompressed(opts); err != nil {
		return nil, Stats{}, err
	}
	f := &compressedFilter{s: s, qs: qs, q: q, opts: opts}
	f.init()
	f.run()
	f.finalPrune()
	ids := append([]int(nil), f.cands...)
	return ids, f.stats, nil
}

// SearchCompressedOneScratch runs BOND on a single segment's quantized
// fragments as a filter step and refines the surviving candidates on the
// exact columns, without re-validating (callers validate once via
// ValidateSegments plus ValidateCompressed). Both supported criteria — Hq
// (histogram intersection, as in Figure 9) and Eq (Euclidean) — maintain a
// per-vector score interval [sLo, sHi] from the quantization cell bounds,
// so no true neighbor is ever filtered out. empty is true when no candidate
// was eligible. It runs on pooled scratch buffers (nil allocates
// privately); the result list aliases the scratch and is valid until its
// next search.
func SearchCompressedOneScratch(src Source, qs *vstore.QuantStore, q []float64, opts Options, sc *Scratch) (CompressedResult, bool) {
	f := &compressedFilter{s: src, qs: qs, q: q, opts: opts, sc: sc}
	f.init()
	if len(f.cands) == 0 {
		return CompressedResult{}, true
	}
	f.run()
	return f.refine(), false
}

type compressedFilter struct {
	s    Source
	qs   *vstore.QuantStore
	q    []float64
	opts Options

	order      []int
	k          int
	cands      []int
	sLo, sHi   []float64
	processedQ float64
	stats      Stats

	sc *Scratch
}

func (f *compressedFilter) init() {
	if f.sc == nil {
		f.sc = &Scratch{}
	}
	sc := f.sc
	sc.order = buildOrderInto(grow(sc.order, f.s.Dims()), &sc.orderSc,
		f.q, nil, nil, f.opts.Order, f.opts.Seed, f.opts.Criterion.Distance(), nil)
	f.order = sc.order
	f.cands = sc.liveCandidates(f.s, f.opts.Exclude)
	f.k = f.opts.K
	if f.k > len(f.cands) {
		f.k = len(f.cands)
	}
	sc.sLo = zeroed(sc.sLo, len(f.cands))
	sc.sHi = zeroed(sc.sHi, len(f.cands))
	f.sLo, f.sHi = sc.sLo, sc.sHi
	f.stats.Steps = sc.steps[:0]
}

func (f *compressedFilter) run() {
	total := len(f.order)
	for processed := 0; processed < total; {
		next := processed + f.opts.Step
		if next > total {
			next = total
		}
		f.accumulate(processed, next)
		processed = next
		if len(f.cands) <= f.k {
			continue
		}
		f.pruneStep(processed)
	}
	f.stats.FinalCandidates = len(f.cands)
}

// accumulate folds one batch of code columns into the score intervals.
// The cell bounds depend only on (code, q_d), so each column's 256
// possible contributions are tabulated up front and the candidate loop is
// two table loads and adds per cell — the same values in the same order
// as computing the bounds inline, so scores are bit-identical, at a
// fraction of the arithmetic.
func (f *compressedFilter) accumulate(from, to int) {
	hist := !f.opts.Criterion.Distance()
	var tblLo, tblHi [256]float64
	for _, d := range f.order[from:to] {
		codes := f.qs.Codes[d]
		qd := f.q[d]
		if len(f.cands) >= f.qs.Q.Levels {
			for c := 0; c < f.qs.Q.Levels; c++ {
				if hist {
					tblLo[c], tblHi[c] = f.qs.Q.MinIntersectBounds(uint8(c), qd)
				} else {
					tblLo[c], tblHi[c] = f.qs.Q.SqDistBounds(uint8(c), qd)
				}
			}
			kernel.AccCodeBounds(f.sLo, f.sHi, codes, f.cands, &tblLo, &tblHi)
		} else {
			// Fewer candidates than code levels: tabulating would cost
			// more bound evaluations than it saves.
			for ci, id := range f.cands {
				var lo, hi float64
				if hist {
					lo, hi = f.qs.Q.MinIntersectBounds(codes[id], qd)
				} else {
					lo, hi = f.qs.Q.SqDistBounds(codes[id], qd)
				}
				f.sLo[ci] += lo
				f.sHi[ci] += hi
			}
		}
		f.processedQ += qd
		f.stats.ValuesScanned += int64(len(f.cands))
	}
}

// pruneStep applies the Hq (or Eq) rule on the score intervals: a vector's
// best case is its optimistic partial score plus the tail bound; the k-th
// pessimistic partial score anchors κ.
func (f *compressedFilter) pruneStep(processed int) {
	stat := StepStat{DimsProcessed: processed}
	before := len(f.cands)
	keep := grow(f.sc.keep, before)[:before]
	f.sc.keep = keep

	if !f.opts.Criterion.Distance() {
		tail := metric.NewHistTail(f.qTail(processed))
		tq := tail.HqUpper()
		if !futileSkipDisabled && f.processedQ <= tq {
			stat.Skipped = true
			stat.Candidates = before
			f.appendStep(stat)
			return
		}
		kappa, kbuf := topk.KthLargest(f.sLo, f.k, f.sc.kbuf)
		f.sc.kbuf = kbuf
		for ci := range keep {
			keep[ci] = f.sHi[ci]+tq >= kappa
		}
	} else {
		tail := f.sc.euc.Reset(f.qTail(processed))
		bound := tail.EqUpper()
		if f.opts.NormalizedData {
			bound = tail.EqUpperNormalized()
		}
		kappa, kbuf := topk.KthSmallest(f.sHi, f.k, f.sc.kbuf)
		f.sc.kbuf = kbuf
		kappa += bound
		for ci := range keep {
			keep[ci] = f.sLo[ci] <= kappa
		}
	}

	out := 0
	for ci, ok := range keep {
		if !ok {
			continue
		}
		f.cands[out] = f.cands[ci]
		f.sLo[out] = f.sLo[ci]
		f.sHi[out] = f.sHi[ci]
		out++
	}
	f.cands = f.cands[:out]
	f.sLo = f.sLo[:out]
	f.sHi = f.sHi[:out]

	stat.Candidates = out
	stat.Pruned = before - out
	f.appendStep(stat)
	if out <= f.k && f.stats.DimsUntilK == 0 {
		f.stats.DimsUntilK = processed
	}
}

// appendStep logs one pruning iteration, keeping the scratch-backed step
// buffer's growth for reuse.
func (f *compressedFilter) appendStep(stat StepStat) {
	f.stats.Steps = append(f.stats.Steps, stat)
	f.sc.steps = f.stats.Steps
}

func (f *compressedFilter) qTail(processed int) []float64 {
	rem := f.order[processed:]
	out := grow(f.sc.qtail, len(rem))
	for _, d := range rem {
		out = append(out, f.q[d])
	}
	f.sc.qtail = out
	return out
}

// finalPrune drops candidates that cannot reach the k-th best even with
// exact tails exhausted (all dimensions processed: the interval is final).
func (f *compressedFilter) finalPrune() {
	if len(f.cands) <= f.k {
		return
	}
	var kappa float64
	keep := grow(f.sc.keep, len(f.cands))[:len(f.cands)]
	f.sc.keep = keep
	if !f.opts.Criterion.Distance() {
		kappa, f.sc.kbuf = topk.KthLargest(f.sLo, f.k, f.sc.kbuf)
		for ci := range keep {
			keep[ci] = f.sHi[ci] >= kappa
		}
	} else {
		kappa, f.sc.kbuf = topk.KthSmallest(f.sHi, f.k, f.sc.kbuf)
		for ci := range keep {
			keep[ci] = f.sLo[ci] <= kappa
		}
	}
	out := 0
	for ci, ok := range keep {
		if ok {
			f.cands[out] = f.cands[ci]
			out++
		}
	}
	f.cands = f.cands[:out]
}

// refine computes exact scores for the filter survivors from the exact
// columns and returns the true top-k (scratch-backed result list).
func (f *compressedFilter) refine() CompressedResult {
	f.finalPrune()
	res := CompressedResult{
		FilterCandidates: len(f.cands),
		FilterStats:      f.stats,
	}
	dist := f.opts.Criterion.Distance()
	exact := zeroed(f.sc.aux, len(f.cands))
	f.sc.aux = exact
	for d := 0; d < f.s.Dims(); d++ {
		col := f.s.Column(d)
		qd := f.q[d]
		if dist {
			kernel.AccSqDist(exact, col, f.cands, qd)
		} else {
			kernel.AccMinQ(exact, col, f.cands, qd)
		}
		res.RefineValuesScanned += int64(len(f.cands))
	}
	h := f.sc.outHeap(f.k, !dist)
	for ci, id := range f.cands {
		h.Push(id, exact[ci])
	}
	f.sc.results = h.AppendResults(f.sc.results[:0])
	res.Results = f.sc.results
	return res
}

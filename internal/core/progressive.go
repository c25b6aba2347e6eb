package core

import (
	"bond/internal/topk"
)

// Progressive is an incremental BOND search driven by the caller: each
// Step processes one batch of columns and prunes, and the intermediate
// candidate set is inspectable between steps. This supports the
// interactive retrieval pattern the paper's introduction motivates — a UI
// can show a shrinking candidate set, stop early with the current
// approximate candidates, or run to completion for the exact answer.
//
// Over a segmented collection the per-segment engines advance in
// lockstep: one Step processes the next batch of dimensions in every
// segment. Finish merges the per-segment results into the same exact
// answer a one-shot search returns.
type Progressive struct {
	engines  []*engine
	bases    []int
	segIdx   []int // physical view index of each engine (for step tagging)
	steps    []int // per-engine adaptive stride
	pos      []int // per-engine dimensions processed
	k        int
	distance bool
	finished bool
}

// NewProgressive prepares an incremental search over a single flat source
// with the same options as Search.
func NewProgressive(s Source, q []float64, opts Options) (*Progressive, error) {
	if err := opts.validate(s, q); err != nil {
		return nil, err
	}
	return newProgressive([]SegmentView{{Src: s}}, q, opts)
}

// NewProgressiveSegments prepares an incremental search over a segmented
// collection. Segment skipping does not apply — every segment stays
// inspectable until the caller finishes — but results are identical to
// a one-shot planned search.
func NewProgressiveSegments(views []SegmentView, q []float64, opts Options) (*Progressive, error) {
	m, err := aggregateViews(len(views), func(i int) *SegmentView { return &views[i] })
	if err != nil {
		return nil, err
	}
	if err := opts.validate(m, q); err != nil {
		return nil, err
	}
	return newProgressive(views, q, opts)
}

func newProgressive(views []SegmentView, q []float64, opts Options) (*Progressive, error) {
	p := &Progressive{k: opts.K, distance: opts.Criterion.Distance()}
	qs := new(Query)
	qs.Init(q, opts)
	for vi, v := range views {
		if v.Src.Len() == 0 {
			continue
		}
		// No carried κ: every segment's candidates stay inspectable.
		e := newEngine(v.Src, qs, LocalExclude(opts.Exclude, v.Base, v.Src.Len()), 0, false, nil)
		if e == nil {
			continue
		}
		p.engines = append(p.engines, e)
		p.bases = append(p.bases, v.Base)
		p.segIdx = append(p.segIdx, vi)
		p.steps = append(p.steps, opts.Step)
		p.pos = append(p.pos, 0)
	}
	if len(p.engines) == 0 {
		return nil, ErrNoCandidates
	}
	return p, nil
}

// Step processes the next batch of dimensions in every segment and prunes.
// It returns false once every effective dimension has been processed
// (further calls are no-ops).
func (p *Progressive) Step() bool {
	if p.finished {
		return false
	}
	done := true
	for i, e := range p.engines {
		total := len(e.qs.order)
		if p.pos[i] >= total {
			continue
		}
		p.pos[i], p.steps[i] = e.stepOnce(p.pos[i], p.steps[i])
		if p.pos[i] < total {
			done = false
		}
	}
	p.finished = done
	return !p.finished
}

// DimsProcessed returns the number of columns read so far (the maximum
// over segments, which differ only when subspaces leave them uneven).
func (p *Progressive) DimsProcessed() int {
	m := 0
	for _, pos := range p.pos {
		if pos > m {
			m = pos
		}
	}
	return m
}

// DimsTotal returns the number of effective dimensions of the query.
func (p *Progressive) DimsTotal() int {
	m := 0
	for _, e := range p.engines {
		if len(e.qs.order) > m {
			m = len(e.qs.order)
		}
	}
	return m
}

// NumCandidates returns the current candidate-set size across segments.
func (p *Progressive) NumCandidates() int {
	n := 0
	for _, e := range p.engines {
		n += e.live
	}
	return n
}

// Candidates returns a copy of the current candidate ids (global,
// ascending).
func (p *Progressive) Candidates() []int {
	var out []int
	for i, e := range p.engines {
		out = e.candidates(out, p.bases[i])
	}
	return out
}

// merge ranks the engines' current results into one top-k list.
func (p *Progressive) merge() []topk.Result {
	lists := make([][]topk.Result, len(p.engines))
	for i, e := range p.engines {
		lists[i] = RebaseInPlace(e.finish().Results, p.bases[i])
	}
	return topk.Merge(p.k, !p.distance, lists...)
}

// CurrentBest ranks the current candidates by their partial scores — an
// approximate preview that becomes the exact answer once Step has
// exhausted the dimensions.
func (p *Progressive) CurrentBest() []topk.Result {
	return p.merge()
}

// Finish runs the remaining steps and returns the exact result, identical
// to what a one-shot search would have produced.
func (p *Progressive) Finish() Result {
	for p.Step() {
	}
	res := Result{Results: p.merge(), Stats: p.Stats()}
	return res
}

// Stats returns the statistics accumulated so far, summed over segments.
func (p *Progressive) Stats() Stats {
	var st Stats
	for i, e := range p.engines {
		es := e.stats
		es.FinalCandidates = e.live
		mergeStats(&st, es, p.segIdx[i])
		st.SegmentsSearched++
	}
	return st
}

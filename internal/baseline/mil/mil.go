// Package mil is the paper's Section 6.1 reference engine: BOND with
// criterion Hq written as a pipeline of MIL operators over the BATs of
// package bat, as it runs inside MonetDB. It is a baseline the paper's
// ablations measure against, not a serving path: only internal/bench,
// cmd/bondbench and tests import it.
package mil

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"bond/internal/baseline/bat"
	"bond/internal/bitmap"
	"bond/internal/core"
	"bond/internal/topk"
)

// MILOptions configures the MIL reference engine.
type MILOptions struct {
	// K is the number of neighbors. Required, ≥ 1.
	K int
	// Step is the pruning granularity m. Default core.DefaultStep.
	Step int
	// BitmapSwitch is the candidate fraction below which the engine stops
	// using the bitmap representation and materializes the candidate set
	// for positional joins (Section 6.1: "after several iterations, when
	// the candidate set has reduced significantly, the query processor
	// switches to the standard positional joins approach"). 0 materializes
	// immediately; 1 keeps the bitmap until the end. Default 0.05.
	BitmapSwitch float64
	// Exclude initializes the bitmap with the complement of a prior
	// selection predicate (Section 6.1). May be nil.
	Exclude *bitmap.Bitmap
}

// ErrMILOptions reports invalid MIL engine options.
var ErrMILOptions = errors.New("mil: invalid MIL options")

// SearchMIL executes BOND with criterion Hq through the MIL operator layer
// of package bat, mirroring the paper's Section 6.1 listing:
//
//  1. for i in 1..m do Di := [min](Hi, const Qi); Smin := [+](D1, …, Dm);
//  2. sk := Smin.kfetch(k); maxbound := sk − T(q⁺); C := Smin.uselect(maxbound, …);
//  3. for i in m+1..N do Hi := C.reverse.join(Hi);
//
// applied iteratively, with the early iterations using the bitmap-index
// implementation of uselect and the later ones the positional-join
// reduction. Results are identical to core.Search with criterion Hq.
func SearchMIL(s core.Source, q []float64, opts MILOptions) (core.Result, error) {
	if opts.K < 1 {
		return core.Result{}, ErrMILOptions
	}
	if len(q) != s.Dims() {
		return core.Result{}, core.ErrQueryMismatch
	}
	if opts.Step == 0 {
		opts.Step = core.DefaultStep
	}
	if opts.Step < 1 {
		return core.Result{}, ErrMILOptions
	}
	if opts.BitmapSwitch == 0 {
		opts.BitmapSwitch = 0.05
	}
	if opts.BitmapSwitch < 0 || opts.BitmapSwitch > 1 {
		return core.Result{}, ErrMILOptions
	}
	n := s.Len()
	// Dimensions by q descending, ties in storage order: the largest
	// contributions min(h, q) come first (Section 5.1).
	order := make([]int, s.Dims())
	for d := range order {
		order[d] = d
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(q[b], q[a]) })

	// The bitmap doubles as delete-mark carrier and predicate filter
	// (Sections 6.1–6.2): start from live ∧ ¬excluded.
	bm := bitmap.New(n)
	bm.SetAll()
	bm.AndNot(core.DeletedView(s))
	if opts.Exclude != nil {
		// The exclusion bitmap may be smaller than the collection (sized
		// before concurrent appends); out-of-range ids are not excluded.
		opts.Exclude.ForEach(func(id int) {
			if id < n {
				bm.Clear(id)
			}
		})
	}
	if bm.Count() == 0 {
		return core.Result{}, core.ErrNoCandidates
	}
	k := opts.K
	if k > bm.Count() {
		k = bm.Count()
	}

	var stats core.Stats
	var processedQ float64
	tailQ := func(processed int) float64 {
		t := 0.0
		for _, d := range order[processed:] {
			t += q[d]
		}
		return t
	}

	// Within one search the operator pipeline recycles its intermediates —
	// the uselect result bitmap, the kfetch and gather columns, the
	// positional phase's ping-pong id/score columns — as MonetDB itself
	// keeps BAT heaps around.
	var (
		kbuf, vals, gather []float64
		spareIDs           []int
		spareScores        []float64
	)
	selected := bitmap.New(n)

	// --- Bitmap phase: scores kept full-length, candidates as set bits. ---
	smin := bat.NewFloatVoid(0, make([]float64, n))
	var (
		candIDs    []int     // materialized candidates (nil while in bitmap phase)
		candScores []float64 // scores aligned with candIDs
	)
	total := len(order)
	processed := 0
	for processed < total {
		next := processed + opts.Step
		if next > total {
			next = total
		}
		for _, d := range order[processed:next] {
			hi := bat.NewFloatVoid(0, s.Column(d))
			qd := q[d]
			if candIDs == nil {
				// [min](Hi, const Qi) evaluated for candidate positions only.
				bm.ForEach(func(id int) {
					smin.Tail[id] += math.Min(hi.Tail[id], qd)
				})
				stats.ValuesScanned += int64(bm.Count())
			} else {
				// Hi reduced to the candidate set by a positional join into
				// the recycled gather column, then [min] and [+] in place.
				gather = slices.Grow(gather[:0], len(candIDs))[:len(candIDs)]
				bat.JoinFloatInto(gather, &bat.OID{Tail: candIDs}, hi)
				bat.MapMinConstInto(gather, gather, qd)
				bat.AddInto(&bat.Float{Tail: candScores}, &bat.Float{Tail: gather})
				stats.ValuesScanned += int64(len(candIDs))
			}
			processedQ += qd
		}
		processed = next
		if processed >= total {
			break
		}

		count := bm.Count()
		if candIDs != nil {
			count = len(candIDs)
		}
		if count <= k {
			continue
		}

		stat := core.StepStat{DimsProcessed: processed}
		tq := tailQ(processed)
		if processedQ <= tq {
			stat.Skipped = true
			stat.Candidates = count
			stats.Steps = append(stats.Steps, stat)
			continue
		}

		if candIDs == nil {
			// kfetch over the candidate scores, then bitmap uselect.
			vals = bat.SelectFloatInto(vals[:0], smin, bm)
			var sk float64
			sk, kbuf = topk.KthLargest(vals, k, kbuf)
			selected.Reuse(n)
			bat.USelectBitmapInto(selected, smin, sk-tq, math.Inf(1))
			bm.And(selected)
			stat.Candidates = bm.Count()
			stat.Pruned = count - stat.Candidates
			// Switch to positional joins once selectivity is high enough.
			if float64(bm.Count()) < opts.BitmapSwitch*float64(n) {
				candIDs = bm.AppendSlice(make([]int, 0, bm.Count()))
				candScores = bat.SelectFloatInto(make([]float64, 0, len(candIDs)), smin, bm)
			}
		} else {
			var sk float64
			sk, kbuf = topk.KthLargest(candScores, k, kbuf)
			// uselect over the candidate scores yields positions into the
			// candidate array (void heads); gather the surviving ids and
			// scores into the spare columns, which then swap with the
			// current ones.
			sel := bat.USelectInto(spareIDs[:0], &bat.Float{Tail: candScores}, sk-tq, math.Inf(1))
			newScores := slices.Grow(spareScores[:0], len(sel))[:len(sel)]
			for i, pos := range sel {
				newScores[i] = candScores[pos]
				sel[i] = candIDs[pos]
			}
			spareIDs, spareScores = candIDs, candScores
			candIDs, candScores = sel, newScores
			stat.Candidates = len(candIDs)
			stat.Pruned = count - stat.Candidates
		}
		stats.Steps = append(stats.Steps, stat)
		cur := bm.Count()
		if candIDs != nil {
			cur = len(candIDs)
		}
		if cur <= k && stats.DimsUntilK == 0 {
			stats.DimsUntilK = processed
		}
	}

	// Final ranking.
	stats.SegmentsSearched = 1
	h := topk.NewLargest(k)
	if candIDs == nil {
		bm.ForEach(func(id int) { h.Push(id, smin.Tail[id]) })
		stats.FinalCandidates = bm.Count()
	} else {
		for i, id := range candIDs {
			h.Push(id, candScores[i])
		}
		stats.FinalCandidates = len(candIDs)
	}
	return core.Result{Results: h.AppendResults(nil), Stats: stats}, nil
}

package core

import (
	"errors"
	"math"

	"bond/internal/bat"
	"bond/internal/bitmap"
	"bond/internal/topk"
)

// MILOptions configures the MIL reference engine.
type MILOptions struct {
	// K is the number of neighbors. Required, ≥ 1.
	K int
	// Step is the pruning granularity m. Default DefaultStep.
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
var ErrMILOptions = errors.New("core: invalid MIL options")

// SearchMIL executes BOND with criterion Hq through the MIL operator layer
// of package bat, mirroring the paper's Section 6.1 listing:
//
//  1. for i in 1..m do Di := [min](Hi, const Qi); Smin := [+](D1, …, Dm);
//  2. sk := Smin.kfetch(k); maxbound := sk − T(q⁺); C := Smin.uselect(maxbound, …);
//  3. for i in m+1..N do Hi := C.reverse.join(Hi);
//
// applied iteratively, with the early iterations using the bitmap-index
// implementation of uselect and the later ones the positional-join
// reduction. Results are identical to Search with criterion Hq.
func SearchMIL(s Source, q []float64, opts MILOptions) (Result, error) {
	if opts.K < 1 {
		return Result{}, ErrMILOptions
	}
	if len(q) != s.Dims() {
		return Result{}, ErrQueryMismatch
	}
	if opts.Step == 0 {
		opts.Step = DefaultStep
	}
	if opts.Step < 1 {
		return Result{}, ErrMILOptions
	}
	if opts.BitmapSwitch == 0 {
		opts.BitmapSwitch = 0.05
	}
	if opts.BitmapSwitch < 0 || opts.BitmapSwitch > 1 {
		return Result{}, ErrMILOptions
	}
	// Within one search the operator pipeline recycles its intermediates —
	// score column, candidate bitmap, uselect result, positional-phase
	// id/score columns — as MonetDB itself keeps BAT heaps around.
	sc := &Scratch{}

	n := s.Len()
	sc.order = buildOrderInto(grow(sc.order, s.Dims()), &sc.orderSc, q, nil, nil, OrderQueryDesc, 0, false, nil)
	order := sc.order

	// The bitmap doubles as delete-mark carrier and predicate filter
	// (Sections 6.1–6.2): start from live ∧ ¬excluded.
	if sc.milBM == nil {
		sc.milBM = bitmap.New(0)
	}
	bm := sc.milBM
	bm.Reuse(n)
	bm.SetAll()
	bm.AndNot(deletedOf(s))
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
		return Result{}, ErrNoCandidates
	}
	k := opts.K
	if k > bm.Count() {
		k = bm.Count()
	}

	var stats Stats
	stats.Steps = sc.steps[:0]
	logStep := func(stat StepStat) {
		stats.Steps = append(stats.Steps, stat)
		sc.steps = stats.Steps
	}
	var processedQ float64
	tailQ := func(processed int) float64 {
		t := 0.0
		for _, d := range order[processed:] {
			t += q[d]
		}
		return t
	}

	// --- Bitmap phase: scores kept full-length, candidates as set bits. ---
	sc.milScore = zeroed(sc.milScore, n)
	smin := bat.NewFloatVoid(0, sc.milScore)
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
				sc.milGather = grow(sc.milGather, len(candIDs))[:len(candIDs)]
				bat.JoinFloatInto(sc.milGather, &bat.OID{Tail: candIDs}, hi)
				bat.MapMinConstInto(sc.milGather, sc.milGather, qd)
				bat.AddInto(&bat.Float{Tail: candScores}, &bat.Float{Tail: sc.milGather})
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

		stat := StepStat{DimsProcessed: processed}
		tq := tailQ(processed)
		if processedQ <= tq {
			stat.Skipped = true
			stat.Candidates = count
			logStep(stat)
			continue
		}

		if candIDs == nil {
			// kfetch over the candidate scores, then bitmap uselect.
			sc.milVals = bat.SelectFloatInto(grow(sc.milVals, bm.Count()), smin, bm)
			sk, kbuf := topk.KthLargest(sc.milVals, k, sc.kbuf)
			sc.kbuf = kbuf
			maxbound := sk - tq
			if sc.milSel == nil {
				sc.milSel = bitmap.New(0)
			}
			sc.milSel.Reuse(n)
			bat.USelectBitmapInto(sc.milSel, smin, maxbound, math.Inf(1))
			bm.And(sc.milSel)
			stat.Candidates = bm.Count()
			stat.Pruned = count - stat.Candidates
			// Switch to positional joins once selectivity is high enough.
			if float64(bm.Count()) < opts.BitmapSwitch*float64(n) {
				sc.milIDs = bm.AppendSlice(grow(sc.milIDs, bm.Count()))
				candIDs = sc.milIDs
				sc.milVals = bat.SelectFloatInto(grow(sc.milVals, len(candIDs)), smin, bm)
				candScores = sc.milVals
			}
		} else {
			sk, kbuf := topk.KthLargest(candScores, k, sc.kbuf)
			sc.kbuf = kbuf
			maxbound := sk - tq
			// uselect over the candidate scores yields positions into the
			// candidate array (void heads); gather the surviving ids and
			// scores into the ping-pong buffers.
			sel := bat.USelectInto(grow(sc.milIDs2, len(candIDs)),
				&bat.Float{Tail: candScores}, maxbound, math.Inf(1))
			sc.milIDs2 = sel
			newScores := grow(sc.milVals2, len(sel))[:len(sel)]
			sc.milVals2 = newScores
			for i, pos := range sel {
				newScores[i] = candScores[pos]
				sel[i] = candIDs[pos]
			}
			sc.milIDs, sc.milIDs2 = sc.milIDs2, sc.milIDs
			sc.milVals, sc.milVals2 = sc.milVals2, sc.milVals
			candIDs, candScores = sel, newScores
			stat.Candidates = len(candIDs)
			stat.Pruned = count - stat.Candidates
		}
		logStep(stat)
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
	h := sc.outHeap(k, true)
	if candIDs == nil {
		bm.ForEach(func(id int) { h.Push(id, smin.Tail[id]) })
		stats.FinalCandidates = bm.Count()
	} else {
		for i, id := range candIDs {
			h.Push(id, candScores[i])
		}
		stats.FinalCandidates = len(candIDs)
	}
	sc.results = h.AppendResults(sc.results[:0])
	return Result{Results: sc.results, Stats: stats}, nil
}

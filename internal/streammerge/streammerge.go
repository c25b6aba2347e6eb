// Package streammerge implements the stream-merging baseline for
// multi-feature queries that Section 8.2 compares synchronized BOND
// against: the approach of Fagin [7] and Güntzer et al. [9].
//
// Each feature collection produces a ranked stream of its top matches
// (here via BOND with criterion Hq, so the per-stream search is as strong
// as the competition's). The merge retrieves the top k′ objects of every
// stream, computes the exact global score for each object seen in any
// stream via random accesses to the other features, and stops when the
// k-th best global score reaches the threshold τ = agg(per-stream k′-th
// scores) — no unseen object can beat τ, because streams are sorted.
// If the condition fails, k′ doubles and the streams are re-read.
//
// The paper's difficulty with this design is choosing k′: too small and
// the merge must iterate, too large and the per-stream searches overpay
// (cf. Figure 6). SearchOptimal grants the baseline the smallest
// sufficient k′ for free — the paper's "optimal, unknown in reality"
// setting — making the reported speedups of synchronized search
// conservative.
package streammerge

import (
	"errors"
	"fmt"
	"sort"

	"bond/internal/core"
	"bond/internal/multifeature"
	"bond/internal/plan"
	"bond/internal/topk"
)

// Stats describes the work of a stream-merge search.
type Stats struct {
	// ValuesScanned counts coefficients read by the per-stream BOND
	// searches (summed over rounds).
	ValuesScanned int64
	// RandomAccesses counts exact global-score computations; each touches
	// every feature of one object.
	RandomAccesses int64
	// Rounds is the number of k′ doublings performed (1 = first try).
	Rounds int
	// FinalKPrime is the per-stream retrieval depth that terminated.
	FinalKPrime int
}

// Result is a completed stream-merge search.
type Result struct {
	Results []topk.Result
	Stats   Stats
}

// ErrBadOptions reports invalid arguments.
var ErrBadOptions = errors.New("streammerge: invalid options")

// Search merges per-feature streams with doubling k′ until the Fagin
// stopping condition holds, starting at k′ = k.
func Search(features []multifeature.Feature, k int, agg multifeature.Aggregate) (Result, error) {
	if err := check(features, k); err != nil {
		return Result{}, err
	}
	n := features[0].Len()
	var total Stats
	kprime := k
	for {
		total.Rounds++
		res, satisfied, err := runOnce(features, k, kprime, agg)
		if err != nil {
			return Result{}, err
		}
		total.ValuesScanned += res.Stats.ValuesScanned
		total.RandomAccesses += res.Stats.RandomAccesses
		if satisfied || kprime >= n {
			total.FinalKPrime = kprime
			res.Stats = total
			return res, nil
		}
		kprime *= 2
		if kprime > n {
			kprime = n
		}
	}
}

// SearchOptimal finds the smallest k′ for which a single merge round
// terminates (by binary search over k′, whose probe costs are not charged)
// and returns the result and cost of that single round — the generous
// baseline setting of the Section 8.2 experiment.
func SearchOptimal(features []multifeature.Feature, k int, agg multifeature.Aggregate) (Result, error) {
	if err := check(features, k); err != nil {
		return Result{}, err
	}
	n := features[0].Len()
	lo, hi := k, n
	// Invariant: a round at hi terminates (at k′ = n it always does: all
	// objects are seen, so the threshold test is irrelevant).
	for lo < hi {
		mid := lo + (hi-lo)/2
		_, satisfied, err := runOnce(features, k, mid, agg)
		if err != nil {
			return Result{}, err
		}
		if satisfied {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	res, _, err := runOnce(features, k, lo, agg)
	if err != nil {
		return Result{}, err
	}
	res.Stats.Rounds = 1
	res.Stats.FinalKPrime = lo
	return res, nil
}

// runOnce retrieves the top-k′ of every stream, random-accesses global
// scores for the union, and evaluates the stopping condition.
func runOnce(features []multifeature.Feature, k, kprime int, agg multifeature.Aggregate) (Result, bool, error) {
	var st Stats
	seen := make(map[int]bool)
	thresholdParts := make([]float64, len(features))
	weights := make([]float64, len(features))
	for f, feat := range features {
		weights[f] = feat.Weight
		// Per-stream ranking runs segment-aware BOND, so segmented feature
		// collections stream as cheaply as flat ones.
		p, err := plan.New(plan.WrapViews(feat.Views()), nil,
			plan.Spec{Query: feat.Query, K: kprime, Criterion: core.Hq, Strategy: plan.ForceBOND}, nil)
		if err != nil {
			return Result{}, false, fmt.Errorf("streammerge: stream %d: %w", f, err)
		}
		sr, err := plan.Execute(p)
		if err != nil {
			return Result{}, false, fmt.Errorf("streammerge: stream %d: %w", f, err)
		}
		st.ValuesScanned += sr.Stats.ValuesScanned
		for _, r := range sr.Results {
			seen[r.ID] = true
		}
		if len(sr.Results) > 0 {
			thresholdParts[f] = sr.Results[len(sr.Results)-1].Score
		}
	}
	tau := agg.Combine(thresholdParts, weights)

	h := topk.NewLargest(min(k, len(seen)))
	// Deterministic iteration order for reproducible tie-breaks.
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Random accesses, batched column-wise so the baseline is not charged
	// for cache-hostile row reconstruction.
	globals := multifeature.ExactGlobalBatch(features, agg, ids)
	st.RandomAccesses += int64(len(ids))
	for i, id := range ids {
		h.Push(id, globals[i])
	}
	results := h.Results()
	satisfied := false
	if len(results) >= k {
		// The k-th best seen matches or beats anything unseen.
		satisfied = results[len(results)-1].Score >= tau
	}
	// At full depth every object was seen: always complete.
	if kprime >= features[0].Len() {
		satisfied = true
	}
	return Result{Results: results, Stats: st}, satisfied, nil
}

func check(features []multifeature.Feature, k int) error {
	if len(features) == 0 {
		return fmt.Errorf("%w: no features", ErrBadOptions)
	}
	if k < 1 {
		return fmt.Errorf("%w: k must be >= 1", ErrBadOptions)
	}
	n := features[0].Len()
	for i, f := range features {
		if f.Len() != n {
			return fmt.Errorf("%w: feature %d size mismatch", ErrBadOptions, i)
		}
		if len(f.Query) != f.Dims() {
			return fmt.Errorf("%w: feature %d query dims", ErrBadOptions, i)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

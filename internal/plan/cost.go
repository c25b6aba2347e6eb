package plan

import (
	"runtime"
	"sync"
)

// The planner's one cost unit is the dense float cell: the time
// kernel.AccSqDist/AccMinQ take to fold one exact float64 coefficient into
// a running score. An 8-bit approximation cell is an eighth of the bytes
// (the paper's Section 7.4 prices it so) but, in memory, not of the time:
// the code kernels are table lookups feeding float accumulators. The two
// weights below are kernel time ratios from traced BENCHMARK.json runs,
// checked in so that plans are a function of the data and the query and
// never of the clock.
const (
	// VACodeCost is one cell of the VA-File row-sum filter:
	// kernel.va_rowsum_ns_cell over kernel.acc_{sqdist,minq}_dense_ns_cell,
	// 0.8–1.8 across the four workloads and runs.
	VACodeCost = 1.25
	// ComprCodeCost is one cell of the compressed filter, which keeps a
	// lower and an upper bound per candidate:
	// kernel.acc_code_bounds_ns_cell over
	// kernel.acc_{sqdist,minq}_dense_ns_cell, 1.5–2.5.
	ComprCodeCost = 2.0
)

// The selectivity priors the predictions scale by, anchored on the paper's
// measurements. They are fixed: no execution feeds back into them, so a
// plan depends on nothing a query before it did.
const (
	// bondFrac is the fraction of a segment's coefficients a BOND scan
	// reads before pruning stops (paper Section 7: ~30% on skewed real
	// data, approaching 1 on uniform data).
	bondFrac = 0.35
	// comprFilterFrac is the fraction of a segment's 8-bit cells the
	// compressed filter reads (its pruning loop skips cells too).
	comprFilterFrac = 0.60
	// comprSurvive is the fraction of a segment's vectors surviving the
	// compressed filter into exact refinement.
	comprSurvive = 0.05
	// vaSurvive is the fraction surviving the VA-File filter.
	vaSurvive = 0.03
)

// Pool holds one collection's reusable plans (with their query-sized
// cursors) and executor lanes — small free lists rather than a sync.Pool,
// so the buffers survive garbage collections and the steady-state
// allocation count stays deterministic. The zero value is ready to use.
type Pool struct {
	mu    sync.Mutex
	plans []*Plan
	lanes []*lane
}

// poolCap bounds the lane free list; lanes beyond it (a burst of concurrent
// queries wider than any since) are dropped to the garbage collector. It
// scales with the logical CPU count so QueryBatch's GOMAXPROCS-wide
// worker pool can park every lane between batches on large hosts. The plan
// free list holds groupSize times as many: each batch worker has a whole
// group of plans in flight on its one lane.
func poolCap() int {
	if n := runtime.GOMAXPROCS(0); n > 16 {
		return n
	}
	return 16
}

func (pl *Pool) acquirePlan() *Plan {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := len(pl.plans); n > 0 {
		p := pl.plans[n-1]
		pl.plans = pl.plans[:n-1]
		return p
	}
	return &Plan{pooled: true}
}

func (pl *Pool) releasePlan(p *Plan) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.plans) < groupSize*poolCap() {
		pl.plans = append(pl.plans, p)
	}
}

func (pl *Pool) acquireLane() *lane {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := len(pl.lanes); n > 0 {
		ln := pl.lanes[n-1]
		pl.lanes = pl.lanes[:n-1]
		return ln
	}
	return &lane{}
}

func (pl *Pool) releaseLane(ln *lane) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.lanes) < poolCap() {
		pl.lanes = append(pl.lanes, ln)
	}
}

// --- Predictions ----------------------------------------------------------
//
// All predictions are in coefficient-equivalents: the number of exact
// float64 reads a path is expected to cost on one segment, with 8-bit
// cell reads charged at VACodeCost or ComprCodeCost. The executor reports
// actual costs in the same unit, which is what EXPLAIN prints side by side.

// predictBond estimates a BOND scan over a segment of n vectors and dims
// dimensions, scaled by the segment's shape factor (see shapeFactor).
func predictBond(n, dims int, shape float64) float64 {
	return float64(n) * float64(dims) * bondFrac * shape
}

func predictCompressed(n, dims int) float64 {
	nd := float64(n) * float64(dims)
	return ComprCodeCost*nd*comprFilterFrac + nd*comprSurvive
}

func predictVAFile(n, dims int) float64 {
	nd := float64(n) * float64(dims)
	return VACodeCost*nd + nd*vaSurvive
}

func predictExact(n, dims int) float64 {
	return float64(n) * float64(dims)
}

// shapeFactor scales the BOND cost prediction by how well branch-and-bound
// should prune on this particular segment, derived from its synopsis
// bound — the planner's per-segment differentiation that the fixed
// bondFrac cannot provide.
//
// For similarity criteria the bound is the best intersection any member
// could reach: a segment whose bound is far below the query mass T(q)
// prunes almost immediately, so the factor is bound/T(q) in (0, 1]. For
// distance criteria the bound is the minimum possible distance to the
// segment's bounding box: the farther the query sits from the box, the
// faster candidates die, so the factor decays as 1/(1+bound). Segments
// without a synopsis get factor 1 (no information, assume the average).
func shapeFactor(bound float64, hasBound, distance bool, queryMass float64) float64 {
	if !hasBound {
		return 1
	}
	if distance {
		return 1 / (1 + bound)
	}
	if queryMass <= 0 {
		return 1
	}
	f := bound / queryMass
	if f < 0.05 {
		f = 0.05
	}
	if f > 1 {
		f = 1
	}
	return f
}

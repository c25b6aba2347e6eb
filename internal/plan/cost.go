package plan

import (
	"encoding/json"
	"runtime"
	"sync"
)

// The planner's one cost unit is the dense float cell: the time
// kernel.AccSqDist/AccMinQ take to fold one exact float64 coefficient into
// a running score. An 8-bit approximation cell is an eighth of the bytes
// (the paper's Section 7.4 prices it so) but, in memory, not of the time:
// the code kernels are table lookups feeding float accumulators. The two
// weights below are kernel time ratios from traced BENCHMARK.json runs,
// checked in so that plans are a function of the data and the query
// history and never of the clock.
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

// ewmaAlpha is the feedback smoothing factor: each executed query moves a
// coefficient a fifth of the way toward the observed value, so the model
// adapts within a handful of queries without thrashing on one outlier.
const ewmaAlpha = 0.2

// Coefficients is the per-collection statistics block the planner predicts
// from and the executor feeds back into — persisted with the store so a
// reopened collection plans from its own history rather than the priors.
type Coefficients struct {
	// Queries counts executed queries that produced feedback.
	Queries int64 `json:"queries"`
	// BondFrac is the EWMA fraction of a segment's coefficients a BOND
	// scan reads before pruning stops (paper Section 7: ~30% on skewed
	// real data, approaching 1 on uniform data).
	BondFrac float64 `json:"bond_frac"`
	// ComprFilterFrac is the EWMA fraction of a segment's 8-bit cells the
	// compressed filter reads (its pruning loop skips cells too).
	ComprFilterFrac float64 `json:"compr_filter_frac"`
	// ComprSurvive is the EWMA fraction of a segment's vectors surviving
	// the compressed filter into exact refinement.
	ComprSurvive float64 `json:"compr_survive"`
	// VASurvive is the EWMA fraction surviving the VA-File filter.
	VASurvive float64 `json:"va_survive"`
}

// defaultCoefficients are the priors a fresh collection plans from,
// anchored on the paper's measurements.
func defaultCoefficients() Coefficients {
	return Coefficients{
		BondFrac:        0.35,
		ComprFilterFrac: 0.60,
		ComprSurvive:    0.05,
		VASurvive:       0.03,
	}
}

// Model is the thread-safe holder of the coefficients. One Model belongs
// to one collection; queries read a snapshot when planning and feed
// observations back after executing. It also owns the collection's pools
// of reusable plans (with their query-sized cursors) and executor lanes —
// small free lists rather than a sync.Pool, so the buffers survive garbage
// collections and the steady-state allocation count stays deterministic.
type Model struct {
	mu sync.Mutex
	c  Coefficients

	poolMu sync.Mutex
	plans  []*Plan
	lanes  []*lane
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

func (m *Model) acquirePlan() *Plan {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if n := len(m.plans); n > 0 {
		p := m.plans[n-1]
		m.plans = m.plans[:n-1]
		return p
	}
	return &Plan{pooled: true}
}

func (m *Model) releasePlan(p *Plan) {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if len(m.plans) < groupSize*poolCap() {
		m.plans = append(m.plans, p)
	}
}

func (m *Model) acquireLane() *lane {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if n := len(m.lanes); n > 0 {
		ln := m.lanes[n-1]
		m.lanes = m.lanes[:n-1]
		return ln
	}
	return &lane{}
}

func (m *Model) releaseLane(ln *lane) {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if len(m.lanes) < poolCap() {
		m.lanes = append(m.lanes, ln)
	}
}

// observer is the feedback sink the executor reports into: the model
// directly, or a feedbackBatch that aggregates a whole QueryBatch first.
type observer interface {
	observeBond(frac float64)
	observeCompressed(filterFrac, survive float64)
	observeVA(survive float64)
	countQuery()
}

// feedbackBatch accumulates execution feedback across the queries of one
// batch and applies it to the model as a single aggregate observation per
// path — one EWMA step moved by the batch mean instead of Q small steps,
// so a batch adapts the model like one representative query would, at a
// fraction of the lock traffic.
type feedbackBatch struct {
	mu              sync.Mutex
	queries         int64
	bond, compr, va pathSums
}

type pathSums struct {
	a, b float64 // path-specific fraction sums
	n    int64
}

func (f *feedbackBatch) add(s *pathSums, a, b float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s.a += a
	s.b += b
	s.n++
}

func (f *feedbackBatch) observeBond(frac float64) { f.add(&f.bond, frac, 0) }

func (f *feedbackBatch) observeVA(survive float64) { f.add(&f.va, survive, 0) }

func (f *feedbackBatch) observeCompressed(filterFrac, survive float64) {
	f.add(&f.compr, filterFrac, survive)
}

func (f *feedbackBatch) countQuery() {
	f.mu.Lock()
	f.queries++
	f.mu.Unlock()
}

// flush applies the accumulated batch means to the model. A path that saw
// no steps leaves its coefficients untouched.
func (f *feedbackBatch) flush(m *Model) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.bond; s.n > 0 {
		m.observeBond(s.a / float64(s.n))
	}
	if s := f.compr; s.n > 0 {
		m.observeCompressed(s.a/float64(s.n), s.b/float64(s.n))
	}
	if s := f.va; s.n > 0 {
		m.observeVA(s.a / float64(s.n))
	}
	m.mu.Lock()
	m.c.Queries += f.queries
	m.mu.Unlock()
	f.queries = 0
	f.bond, f.compr, f.va = pathSums{}, pathSums{}, pathSums{}
}

// NewModel returns a model at the default priors.
func NewModel() *Model {
	return &Model{c: defaultCoefficients()}
}

// LoadModel restores a model from a marshaled statistics block, falling
// back to the priors when the block is empty or unreadable (an old store
// file, or one written before the planner existed).
func LoadModel(b []byte) *Model {
	m := NewModel()
	if len(b) == 0 {
		return m
	}
	var c Coefficients
	if err := json.Unmarshal(b, &c); err != nil {
		return m
	}
	m.c = clampCoefficients(c)
	return m
}

// Marshal serializes the current coefficients for persistence.
func (m *Model) Marshal() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := json.Marshal(m.c)
	if err != nil {
		return nil
	}
	return b
}

// Snapshot returns the current coefficients.
func (m *Model) Snapshot() Coefficients {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}

func clampCoefficients(c Coefficients) Coefficients {
	c.BondFrac = clamp01(c.BondFrac)
	c.ComprFilterFrac = clamp01(c.ComprFilterFrac)
	c.ComprSurvive = clamp01(c.ComprSurvive)
	c.VASurvive = clamp01(c.VASurvive)
	if c.Queries < 0 {
		c.Queries = 0
	}
	return c
}

func clamp01(x float64) float64 {
	if x < 0.001 {
		return 0.001
	}
	if x > 1 {
		return 1
	}
	return x
}

func ewma(old, obs float64) float64 {
	return clamp01(old + ewmaAlpha*(obs-old))
}

// observeBond feeds back one BOND segment scan: frac is coefficients read
// over the segment's full size, already divided by the plan's shape
// factor so the stored coefficient stays shape-neutral.
func (m *Model) observeBond(frac float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.BondFrac = ewma(m.c.BondFrac, frac)
}

func (m *Model) observeCompressed(filterFrac, survive float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.ComprFilterFrac = ewma(m.c.ComprFilterFrac, filterFrac)
	m.c.ComprSurvive = ewma(m.c.ComprSurvive, survive)
}

func (m *Model) observeVA(survive float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.VASurvive = ewma(m.c.VASurvive, survive)
}

func (m *Model) countQuery() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.Queries++
}

// DecayForRewrite discounts the learned coefficients after a structural
// rewrite (compaction, re-clustering) destroyed the segments the feedback
// was observed on: every EWMA coefficient is blended toward its prior in
// proportion to frac, the fraction of the collection's live vectors the
// rewrite moved. frac 1 (a full re-layout, e.g. a recluster of an
// all-sealed collection) resets to the priors; frac 0 is a no-op; the
// query count is kept — it measures history, not layout. Without the
// decay, costs learned on the old layout (say, BondFrac ≈ 1 from loose
// pre-recluster synopses) would keep steering the planner on a layout
// where they no longer hold.
func (m *Model) DecayForRewrite(frac float64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	p := defaultCoefficients()
	m.mu.Lock()
	defer m.mu.Unlock()
	blend := func(old, prior float64) float64 { return old + frac*(prior-old) }
	m.c.BondFrac = clamp01(blend(m.c.BondFrac, p.BondFrac))
	m.c.ComprFilterFrac = clamp01(blend(m.c.ComprFilterFrac, p.ComprFilterFrac))
	m.c.ComprSurvive = clamp01(blend(m.c.ComprSurvive, p.ComprSurvive))
	m.c.VASurvive = clamp01(blend(m.c.VASurvive, p.VASurvive))
}

// --- Predictions ----------------------------------------------------------
//
// All predictions are in coefficient-equivalents: the number of exact
// float64 reads a path is expected to cost on one segment, with 8-bit
// cell reads charged at VACodeCost or ComprCodeCost. The executor reports
// actual costs in the same unit, which is what EXPLAIN prints side by side.

// predictBond estimates a BOND scan over a segment of n vectors and dims
// dimensions, scaled by the segment's shape factor (see shapeFactor).
func (c Coefficients) predictBond(n, dims int, shape float64) float64 {
	return float64(n) * float64(dims) * c.BondFrac * shape
}

func (c Coefficients) predictCompressed(n, dims int) float64 {
	nd := float64(n) * float64(dims)
	return ComprCodeCost*nd*c.ComprFilterFrac + nd*c.ComprSurvive
}

func (c Coefficients) predictVAFile(n, dims int) float64 {
	nd := float64(n) * float64(dims)
	return VACodeCost*nd + nd*c.VASurvive
}

func (c Coefficients) predictExact(n, dims int) float64 {
	return float64(n) * float64(dims)
}

// shapeFactor scales the BOND cost prediction by how well branch-and-bound
// should prune on this particular segment, derived from its synopsis
// bound — the planner's per-segment differentiation that the global EWMA
// cannot provide.
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

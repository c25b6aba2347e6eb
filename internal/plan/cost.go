package plan

import (
	"encoding/json"
	"runtime"
	"sync"
)

// CodeCost is the planner's cost of reading one 8-bit approximation cell,
// in units of one exact float64 coefficient read: an eighth of the
// bytes, matching the paper's byte ratio.
const CodeCost = 0.125

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

	// Per-path EWMA wall time per coefficient-equivalent, in nanoseconds.
	// Cell counts predict I/O volume but miss per-path CPU structure (the
	// compressed filter pays a kfetch per pruning step, the VA-File scan
	// is a tight table loop), so the planner ranks paths by predicted
	// time = predicted cells × learned ns/cell. The priors are equal, so
	// a fresh collection ranks purely by cell count until feedback
	// arrives.
	BondNs  float64 `json:"bond_ns_per_cell"`
	ComprNs float64 `json:"compr_ns_per_cell"`
	VANs    float64 `json:"va_ns_per_cell"`
	ExactNs float64 `json:"exact_ns_per_cell"`

	// The same time coefficients for segments whose columns alias a memory
	// mapping instead of heap memory. Mapped reads cost the same CPU once
	// the pages are resident, but the page cache is not under the
	// collection's control, so the two backings learn separately and a
	// mapped segment is ranked by its own history. The very first scan of a
	// mapped segment after open (page faults dominate) is discarded rather
	// than averaged in — it would poison the steady-state coefficient with
	// a one-time cost.
	BondNsMapped  float64 `json:"bond_ns_per_cell_mapped,omitempty"`
	ComprNsMapped float64 `json:"compr_ns_per_cell_mapped,omitempty"`
	VANsMapped    float64 `json:"va_ns_per_cell_mapped,omitempty"`
	ExactNsMapped float64 `json:"exact_ns_per_cell_mapped,omitempty"`
}

// pathNs returns the learned time coefficient for one path on one segment
// backing.
func (c Coefficients) pathNs(p Path, mapped bool) float64 {
	if mapped {
		switch p {
		case PathBOND:
			return c.BondNsMapped
		case PathCompressed:
			return c.ComprNsMapped
		case PathVAFile:
			return c.VANsMapped
		default:
			return c.ExactNsMapped
		}
	}
	switch p {
	case PathBOND:
		return c.BondNs
	case PathCompressed:
		return c.ComprNs
	case PathVAFile:
		return c.VANs
	default:
		return c.ExactNs
	}
}

// defaultCoefficients are the priors a fresh collection plans from,
// anchored on the paper's measurements.
func defaultCoefficients() Coefficients {
	return Coefficients{
		BondFrac:        0.35,
		ComprFilterFrac: 0.60,
		ComprSurvive:    0.05,
		VASurvive:       0.03,
		BondNs:          defaultNsPerCell,
		ComprNs:         defaultNsPerCell,
		VANs:            defaultNsPerCell,
		ExactNs:         defaultNsPerCell,
		BondNsMapped:    defaultNsPerCell,
		ComprNsMapped:   defaultNsPerCell,
		VANsMapped:      defaultNsPerCell,
		ExactNsMapped:   defaultNsPerCell,
	}
}

// defaultNsPerCell is the prior per-cell time; its absolute value is
// irrelevant (only ratios rank paths), it just has to be equal across
// paths so a fresh model ranks by cell count.
const defaultNsPerCell = 3.0

// Model is the thread-safe holder of the coefficients. One Model belongs
// to one collection; queries read a snapshot when planning and feed
// observations back after executing. It also owns the collection's pools
// of reusable plans and executor scratch lanes — a small free list rather
// than a sync.Pool, so the buffers survive garbage collections and the
// steady-state allocation count stays deterministic.
type Model struct {
	mu sync.Mutex
	c  Coefficients

	poolMu    sync.Mutex
	plans     []*Plan
	scratches []*execScratch
}

// poolCap bounds each free list; lanes beyond it (a burst of concurrent
// queries wider than any since) are dropped to the garbage collector. It
// scales with the logical CPU count so QueryBatch's GOMAXPROCS-wide
// worker pool can park every lane between batches on large hosts.
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
	if len(m.plans) < poolCap() {
		m.plans = append(m.plans, p)
	}
}

func (m *Model) acquireScratch() *execScratch {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if n := len(m.scratches); n > 0 {
		sc := m.scratches[n-1]
		m.scratches = m.scratches[:n-1]
		// A pooled lane may carry a bound table and BOND state built for
		// another query; make sure no step trusts them before this
		// execution rebuilds them.
		sc.vaBuilt, sc.bondBuilt = false, false
		return sc
	}
	return &execScratch{}
}

func (m *Model) releaseScratch(sc *execScratch) {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if len(m.scratches) < poolCap() {
		m.scratches = append(m.scratches, sc)
	}
}

// observer is the feedback sink the executor reports into: the model
// directly, or a FeedbackBatch that aggregates a whole QueryBatch first.
// mapped tags which backing the time was observed on; the fraction
// observations are backing-neutral (pruning behaves the same either way)
// and always update the shared coefficients.
type observer interface {
	observeBond(frac, ns float64, mapped bool)
	observeCompressed(filterFrac, survive, ns float64, mapped bool)
	observeVA(survive, ns float64, mapped bool)
	observeExact(ns float64, mapped bool)
	countQuery()
}

// FeedbackBatch accumulates execution feedback across the queries of one
// batch and applies it to the model as a single aggregate observation per
// path — one EWMA step moved by the batch mean instead of Q small steps,
// so a batch adapts the model like one representative query would, at a
// fraction of the lock traffic.
type FeedbackBatch struct {
	mu      sync.Mutex
	queries int64
	// One slot per path and backing: heap observations in the first four,
	// mapped in the second four, so a mixed batch (some segments heap, some
	// mapped) lands each mean on the right coefficient.
	sums [8]pathSums
}

type pathSums struct {
	a, b, ns float64 // path-specific fraction sums plus ns-per-cell sum
	n, nsN   int64
}

const (
	fbBond = iota
	fbCompr
	fbVA
	fbExact
	fbMappedOff = 4
)

// NewFeedbackBatch returns an empty accumulator.
func NewFeedbackBatch() *FeedbackBatch { return &FeedbackBatch{} }

func (f *FeedbackBatch) add(slot int, a, b, ns float64, mapped bool) {
	if mapped {
		slot += fbMappedOff
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &f.sums[slot]
	s.a += a
	s.b += b
	s.n++
	if ns > 0 {
		s.ns += ns
		s.nsN++
	}
}

func (f *FeedbackBatch) observeBond(frac, ns float64, mapped bool) {
	f.add(fbBond, frac, 0, ns, mapped)
}

func (f *FeedbackBatch) observeVA(survive, ns float64, mapped bool) {
	f.add(fbVA, survive, 0, ns, mapped)
}

func (f *FeedbackBatch) observeExact(ns float64, mapped bool) {
	f.add(fbExact, 0, 0, ns, mapped)
}

func (f *FeedbackBatch) countQuery() {
	f.mu.Lock()
	f.queries++
	f.mu.Unlock()
}

func (f *FeedbackBatch) observeCompressed(filterFrac, survive, ns float64, mapped bool) {
	f.add(fbCompr, filterFrac, survive, ns, mapped)
}

// Flush applies the accumulated batch means to the model. A path that saw
// no steps leaves its coefficients untouched.
func (f *FeedbackBatch) Flush(m *Model) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mean := func(s *pathSums) (a, b, ns float64, ok bool) {
		if s.n == 0 {
			return 0, 0, 0, false
		}
		a, b = s.a/float64(s.n), s.b/float64(s.n)
		if s.nsN > 0 {
			ns = s.ns / float64(s.nsN)
		}
		return a, b, ns, true
	}
	for _, mapped := range [2]bool{false, true} {
		off := 0
		if mapped {
			off = fbMappedOff
		}
		if a, _, ns, ok := mean(&f.sums[fbBond+off]); ok {
			m.observeBond(a, ns, mapped)
		}
		if a, b, ns, ok := mean(&f.sums[fbCompr+off]); ok {
			m.observeCompressed(a, b, ns, mapped)
		}
		if a, _, ns, ok := mean(&f.sums[fbVA+off]); ok {
			m.observeVA(a, ns, mapped)
		}
		if _, _, ns, ok := mean(&f.sums[fbExact+off]); ok && ns > 0 {
			m.observeExact(ns, mapped)
		}
	}
	m.mu.Lock()
	m.c.Queries += f.queries
	m.mu.Unlock()
	f.queries = 0
	f.sums = [8]pathSums{}
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
	c.BondNs = loadedNs(c.BondNs)
	c.ComprNs = loadedNs(c.ComprNs)
	c.VANs = loadedNs(c.VANs)
	c.ExactNs = loadedNs(c.ExactNs)
	c.BondNsMapped = loadedNs(c.BondNsMapped)
	c.ComprNsMapped = loadedNs(c.ComprNsMapped)
	c.VANsMapped = loadedNs(c.VANsMapped)
	c.ExactNsMapped = loadedNs(c.ExactNsMapped)
	if c.Queries < 0 {
		c.Queries = 0
	}
	return c
}

// loadedNs sanitizes a time coefficient read from a persisted statistics
// block. A live model never writes zero (every observation is clamped to
// ≥ 0.05), so zero means the field was absent — a block written before
// the coefficient existed. That must restore the prior, not clampNs's
// floor: 0.05 would make the planner rank the path as 60× faster than its
// peers on no evidence at all.
func loadedNs(x float64) float64 {
	if x == 0 {
		return defaultNsPerCell
	}
	return clampNs(x)
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

func clampNs(x float64) float64 {
	if x != x || x < 0.05 { // NaN or implausibly fast
		return 0.05
	}
	if x > 1e4 {
		return 1e4
	}
	return x
}

func ewma(old, obs float64) float64 {
	return clamp01(old + ewmaAlpha*(obs-old))
}

func ewmaNs(old, obs float64) float64 {
	return clampNs(old + ewmaAlpha*(clampNs(obs)-old))
}

// observeBond feeds back one BOND segment scan: frac is coefficients read
// over the segment's full size, already divided by the plan's shape
// factor so the stored coefficient stays shape-neutral; ns is the
// measured wall time per coefficient-equivalent (0 when unusable).
func (m *Model) observeBond(frac, ns float64, mapped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.BondFrac = ewma(m.c.BondFrac, frac)
	if ns > 0 {
		if mapped {
			m.c.BondNsMapped = ewmaNs(m.c.BondNsMapped, ns)
		} else {
			m.c.BondNs = ewmaNs(m.c.BondNs, ns)
		}
	}
}

func (m *Model) observeCompressed(filterFrac, survive, ns float64, mapped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.ComprFilterFrac = ewma(m.c.ComprFilterFrac, filterFrac)
	m.c.ComprSurvive = ewma(m.c.ComprSurvive, survive)
	if ns > 0 {
		if mapped {
			m.c.ComprNsMapped = ewmaNs(m.c.ComprNsMapped, ns)
		} else {
			m.c.ComprNs = ewmaNs(m.c.ComprNs, ns)
		}
	}
}

func (m *Model) observeVA(survive, ns float64, mapped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c.VASurvive = ewma(m.c.VASurvive, survive)
	if ns > 0 {
		if mapped {
			m.c.VANsMapped = ewmaNs(m.c.VANsMapped, ns)
		} else {
			m.c.VANs = ewmaNs(m.c.VANs, ns)
		}
	}
}

func (m *Model) observeExact(ns float64, mapped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ns > 0 {
		if mapped {
			m.c.ExactNsMapped = ewmaNs(m.c.ExactNsMapped, ns)
		} else {
			m.c.ExactNs = ewmaNs(m.c.ExactNs, ns)
		}
	}
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
	m.c.BondNs = clampNs(blend(m.c.BondNs, p.BondNs))
	m.c.ComprNs = clampNs(blend(m.c.ComprNs, p.ComprNs))
	m.c.VANs = clampNs(blend(m.c.VANs, p.VANs))
	m.c.ExactNs = clampNs(blend(m.c.ExactNs, p.ExactNs))
	m.c.BondNsMapped = clampNs(blend(m.c.BondNsMapped, p.BondNsMapped))
	m.c.ComprNsMapped = clampNs(blend(m.c.ComprNsMapped, p.ComprNsMapped))
	m.c.VANsMapped = clampNs(blend(m.c.VANsMapped, p.VANsMapped))
	m.c.ExactNsMapped = clampNs(blend(m.c.ExactNsMapped, p.ExactNsMapped))
}

// --- Predictions ----------------------------------------------------------
//
// All predictions are in coefficient-equivalents: the number of exact
// float64 reads a path is expected to cost on one segment, with 8-bit
// cell reads charged at CodeCost. The executor reports actual costs in
// the same unit, which is what EXPLAIN prints side by side.

// predictBond estimates a BOND scan over a segment of n vectors and dims
// dimensions, scaled by the segment's shape factor (see shapeFactor).
func (c Coefficients) predictBond(n, dims int, shape float64) float64 {
	return float64(n) * float64(dims) * c.BondFrac * shape
}

func (c Coefficients) predictCompressed(n, dims int) float64 {
	nd := float64(n) * float64(dims)
	return CodeCost*nd*c.ComprFilterFrac + nd*c.ComprSurvive
}

func (c Coefficients) predictVAFile(n, dims int) float64 {
	nd := float64(n) * float64(dims)
	return CodeCost*nd + nd*c.VASurvive
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

// Package bond is a Go implementation of BOND — Branch-and-bound ON
// Decomposed data — the k-nearest-neighbor search technique of de Vries,
// Mamoulis, Nes and Kersten, "Efficient k-NN Search on Vertically
// Decomposed Data", ACM SIGMOD 2002.
//
// # Storage model
//
// A Collection stores N-dimensional feature vectors in a segmented,
// vertically decomposed layout: the collection is split into immutable
// sealed segments plus one mutable active segment, and inside every
// segment each dimension is a contiguous column with a per-vector total
// side table. Appends go to the active segment, which seals at a size
// threshold; deletes are bitmap marks inside their segment; compaction
// rewrites only segments whose tombstone ratio warrants it. Every sealed
// segment carries a per-dimension min/max synopsis and lazily built 8-bit
// compressed fragments.
//
// k-NN queries run BOND per segment — scanning columns in a
// query-dependent order and pruning vectors branch-and-bound style as
// partial scores accumulate — and merge the per-segment top-k lists into
// the exact global answer. Before a segment is searched, its synopsis
// bounds the best score any of its members could reach; once k results
// are in hand, segments that cannot beat the current k-th best are
// skipped without reading a single column. On data with locality (ingest
// by time or by class), whole segments fall away.
//
// # Concurrency
//
// A Collection is safe for concurrent use: any number of readers
// (Query, QueryBatch, QueryExplain, Len, …) run concurrently with
// each other, and writers (AddDurable, AddBatchDurable, TryDeleteDurable,
// CompactRatioDurable, SealActiveDurable, ReclusterDurable) are
// serialized against them by an internal RWMutex. Every search observes a
// consistent snapshot and returns exact results.
// AsFeature takes a snapshot under the lock (sealed segments are shared
// structurally; the small active segment is copied), so the returned
// Feature may be searched after the call without further locking, while
// writers proceed.
//
// # Queries and the planner
//
// Every query runs through a cost-based planner (package plan): a single
// QuerySpec is turned into a per-segment plan that assigns each segment
// an access path — plain BOND, 8-bit compressed filter-and-refine, a
// VA-File filter, or an exact scan — and orders the segments by their
// synopsis bounds. Predictions come from the synopsis and fixed per-path
// priors, so a plan depends on the collection and the query alone.
// Plan.Explain (via Collection.QueryExplain) prints the chosen paths with
// predicted and actual costs.
//
// # Basic use
//
//	col := bond.NewCollection(vectors)          // vectors: [][]float64
//	res, err := col.Query(bond.QuerySpec{Query: q, K: 10, Criterion: bond.Hq})
//
// Supported query classes (exact unless the spec sets Tolerance or
// Deadline):
//
//   - histogram-intersection similarity (criteria Hq, Hh),
//   - squared Euclidean distance (criteria Eq, Ev),
//   - weighted Euclidean and dimensional-subspace queries,
//   - filter-and-refine search on 8-bit compressed fragments (compressed
//     and VA-File access paths),
//   - multi-feature queries across several collections (see MultiSearch).
//
// # Durability
//
// OpenDurable opens a crash-safe collection backed by a write-ahead log
// plus incremental checkpoints: every mutation is logged — and, under
// FsyncAlways, fsynced — before it is acknowledged, checkpoints rewrite
// only the manifest and the active segment (sealed segment files are
// written exactly once, ever), and recovery replays the log tail on top
// of the last checkpoint, always yielding a consistent prefix of the
// acknowledged history. Collection.Checkpoint truncates the log;
// Collection.Close releases it. An in-memory collection has the same
// mutators: it is a durable one with no log, so their error is always
// nil. A durable directory is the only on-disk form of a collection;
// OpenDurable refuses a whole-file snapshot of an earlier release, which
// that release's `bondgen -import` converts offline.
//
// # Serving
//
// cmd/bondd serves many named collections from one process over an HTTP
// JSON API that maps directly onto this package: QuerySpec and
// QueryBatch on the wire, EXPLAIN over HTTP, writes acknowledged through
// AddBatchDurable and TryDeleteDurable, and a background maintenance loop
// driving CompactRatioDurable, ReclusterDurable and Checkpoint. The hooks
// it builds on — TombstoneRatio, ReclusterAdvice, StatsSnapshot,
// TryVector — are exported here so other embedders can build the same
// kind of layer.
package bond

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"bond/internal/bitmap"
	"bond/internal/cluster"
	"bond/internal/core"
	"bond/internal/kernel"
	"bond/internal/multifeature"
	"bond/internal/plan"
	"bond/internal/quant"
	"bond/internal/topk"
	"bond/internal/vafile"
	"bond/internal/vstore"
)

// Re-exported search types. See package core for the full documentation of
// each criterion, ordering, and option.
type (
	// Criterion selects pruning rule and metric.
	Criterion = core.Criterion
	// Order selects the dimension processing order.
	Order = core.Order
	// Result is a completed search with work statistics.
	Result = core.Result
	// Neighbor is one scored match.
	Neighbor = topk.Result
	// Stats describes the work a search performed, including how many
	// segments were searched and how many the synopses skipped.
	Stats = core.Stats
	// Feature is one component of a multi-feature query.
	Feature = multifeature.Feature
	// Aggregate combines per-feature similarities.
	Aggregate = multifeature.Aggregate
	// MultiOptions configures a multi-feature search.
	MultiOptions = multifeature.Options
	// MultiResult is a completed multi-feature search.
	MultiResult = multifeature.Result
	// ClusterOptions configures k-means over the decomposed collection.
	ClusterOptions = cluster.Options
	// ClusterResult is a completed clustering.
	ClusterResult = cluster.Result

	// QuerySpec is the single query description every search reduces to:
	// query vector, k, metric, weights/subspace, tolerance, deadline, and
	// a strategy hint. See Collection.Query.
	QuerySpec = plan.Spec
	// QueryResult is a completed planned query: the exact top-k and merged
	// work statistics.
	QueryResult = plan.Result
	// QueryPlan is a planned query; QueryPlan.Explain renders the chosen
	// per-segment access paths with predicted and actual costs.
	QueryPlan = plan.Plan
	// Strategy forces an access path or (StrategyAuto) lets the planner
	// choose per segment by predicted cost.
	Strategy = plan.Strategy
)

// Access-path strategies for QuerySpec.Strategy.
const (
	// StrategyAuto picks the access path per segment by predicted cost.
	// The default; at the planner's fixed priors it runs BOND throughout,
	// so it plans exactly as StrategyBOND does.
	StrategyAuto = plan.Auto
	// StrategyBOND forces plain BOND on every segment, which is also
	// StrategyAuto's plan while the cost model prefers no other path.
	StrategyBOND = plan.ForceBOND
	// StrategyCompressed forces 8-bit filter-and-refine on sealed
	// segments (exact scan on the active one).
	StrategyCompressed = plan.ForceCompressed
	// StrategyVAFile forces the VA-File filter on sealed segments (exact
	// scan on the active one).
	StrategyVAFile = plan.ForceVAFile
	// StrategyExact forces a full exact scan — the seqscan oracle.
	StrategyExact = plan.ForceExact
)

// ParseStrategy parses a strategy name (auto, bond, compressed, vafile,
// exact) as the CLIs spell it.
func ParseStrategy(s string) (Strategy, error) { return plan.ParseStrategy(s) }

// ParseCriterion parses a criterion name (hq, hh, eq, ev; case-insensitive)
// as the CLIs and the HTTP API spell it.
func ParseCriterion(s string) (Criterion, error) {
	switch strings.ToLower(s) {
	case "hq", "":
		return Hq, nil
	case "hh":
		return Hh, nil
	case "eq":
		return Eq, nil
	case "ev":
		return Ev, nil
	}
	return Hq, fmt.Errorf("bond: unknown criterion %q (want Hq, Hh, Eq, or Ev)", s)
}

// ParseOrder parses a dimension-order name (desc, asc, random, natural;
// case-insensitive) as the CLIs and the HTTP API spell it.
func ParseOrder(s string) (Order, error) {
	switch strings.ToLower(s) {
	case "desc", "":
		return OrderQueryDesc, nil
	case "asc":
		return OrderQueryAsc, nil
	case "random":
		return OrderRandom, nil
	case "natural":
		return OrderNatural, nil
	}
	return OrderQueryDesc, fmt.Errorf("bond: unknown order %q (want desc, asc, random, or natural)", s)
}

// Pruning criteria (Section 4 of the paper).
const (
	// Hq: histogram intersection, query-only bounds. The paper's best
	// all-round criterion.
	Hq = core.Hq
	// Hh: histogram intersection, per-vector bounds (tighter, more
	// bookkeeping).
	Hh = core.Hh
	// Eq: squared Euclidean distance, constant bounds.
	Eq = core.Eq
	// Ev: squared Euclidean distance, per-vector bounds.
	Ev = core.Ev
)

// Dimension orderings (Section 5.1).
const (
	OrderQueryDesc = core.OrderQueryDesc
	OrderQueryAsc  = core.OrderQueryAsc
	OrderRandom    = core.OrderRandom
	OrderNatural   = core.OrderNatural
)

// Aggregates for multi-feature queries (Section 8.2).
const (
	WeightedAvg = multifeature.WeightedAvg
	MinAgg      = multifeature.MinAgg
	MaxAgg      = multifeature.MaxAgg
)

// DefaultSegmentSize is the seal threshold of a collection's active
// segment.
const DefaultSegmentSize = vstore.DefaultSegmentSize

// Collection is a segmented, vertically decomposed vector collection,
// safe for concurrent readers and writers (see the package comment for
// the contract).
type Collection struct {
	mu    sync.RWMutex
	store *vstore.SegStore
	// pool holds the plans and executor scratch the query hot path reuses.
	// It has its own lock, so concurrent readers share it safely.
	pool plan.Pool

	// planCache is the memoized planner view of the current segments, so a
	// steady-state query does not rebuild the segment list (and its lazy
	// access-path providers) per query. Cache hits are a single atomic
	// load, keeping concurrent readers off any shared mutex; planCacheMu
	// only serializes the rebuild and the moments' fold (queries hold just
	// the read lock, so two could race to build). Writers that change the
	// segment list invalidate by storing nil under the write lock.
	planCacheMu sync.Mutex
	planCache   atomic.Pointer[planView]
	// sums are the per-dimension Σv and Σv² over the rows of the first
	// sums.Sources sealed segments, which the views' moments are made from
	// (see orderMoments). Readers fold into them under planCacheMu; a
	// writer that replaces segments resets them under the write lock.
	sums core.MomentSums

	// dur is the durability state of a collection opened with
	// OpenDurable: the write-ahead log every mutation is appended to
	// before it is acknowledged, plus checkpoint bookkeeping. nil for
	// in-memory collections (NewCollection, New), whose mutators then
	// skip logging entirely.
	dur *durability

	// reclusters counts completed re-clustering passes since open, and
	// reclusterMark remembers the sealed slot count right after the last
	// one so ReclusterAdvice does not re-advise an unchanged layout. Both
	// are guarded by mu; neither is persisted (they are process-lifetime
	// observability, not replayed state).
	reclusters    int64
	reclusterMark int
}

// unitQuantizer is the paper's 8-bit [0,1] grid, shared by every segment's
// compressed access paths. Quantizers are immutable, so one instance
// serves all collections without per-query allocation.
var unitQuantizer = quant.NewUnit()

// NewCollection decomposes a row-major collection using the default
// segment size. It panics on empty or ragged input, or on a NaN or
// infinite coordinate (programmer error); use NewSegmented plus
// AddBatchDurable for incremental builds.
func NewCollection(vectors [][]float64) *Collection {
	return NewCollectionSegmented(vectors, DefaultSegmentSize)
}

// NewCollectionSegmented decomposes a row-major collection with an
// explicit segment size (segmentSize <= 0 selects the default) — useful
// to align segment boundaries with known data locality. It panics like
// NewCollection.
func NewCollectionSegmented(vectors [][]float64, segmentSize int) *Collection {
	for i, v := range vectors {
		if err := checkFinite(i, v); err != nil {
			panic("bond: " + err.Error())
		}
	}
	return &Collection{store: vstore.SegmentedFromVectors(vectors, segmentSize)}
}

// NewSegmented returns an empty collection with an explicit segment size
// (segmentSize <= 0 selects the default).
func NewSegmented(dims, segmentSize int) *Collection {
	return &Collection{store: vstore.NewSegmented(dims, segmentSize)}
}

// PlannerPoolStats is the serializable planner view a stats endpoint
// exposes: gauges over the pooled plans and execution lanes.
type PlannerPoolStats = plan.PoolStats

// SegmentSynopsis is the compact serializable summary of one segment's
// per-dimension min/max synopsis.
type SegmentSynopsis = core.Synopsis

// SegmentStats describes one physical segment of a collection as a stats
// endpoint reports it.
type SegmentStats struct {
	// Base is the global id of the segment's local id 0; Len its slot
	// count (including delete-marked slots) and Live the searchable count.
	Base int `json:"base"`
	Len  int `json:"len"`
	Live int `json:"live"`
	// Sealed marks immutable segments (eligible for compressed access
	// paths); the unsealed tail is the active segment appends land in.
	Sealed bool `json:"sealed"`
	// Mapped marks segments whose exact columns alias a read-only memory
	// mapping of their v2 segment file instead of heap memory.
	Mapped bool `json:"mapped,omitempty"`
	// Synopsis summarizes the per-dimension min/max synopsis; nil when the
	// segment has none (empty, or a dimension with no observed data).
	Synopsis *SegmentSynopsis `json:"synopsis,omitempty"`
}

// CollectionStats is a consistent point-in-time description of a
// collection: shape, tombstone load, the planner's pool gauges, and one
// entry per physical segment. It is what bondd's stats endpoint
// serves per collection.
type CollectionStats struct {
	Dims int `json:"dims"`
	// Len counts id slots including delete-marked ones; Live the
	// searchable vectors; Segments the physical segments (sealed + active).
	Len      int `json:"len"`
	Live     int `json:"live"`
	Segments int `json:"segments"`
	// TombstoneRatio is (Len−Live)/Len — the signal background compaction
	// triggers on. 0 for an empty collection.
	TombstoneRatio float64 `json:"tombstone_ratio"`
	// Reclusters counts completed re-clustering passes since open, and
	// SealedSpread is the synopsis-spread gauge background re-clustering
	// triggers on (≈1 shuffled, ≈0 cluster-contiguous; see SealedSpread).
	// SpreadMeasured is false when the gauge is unavailable (no sealed
	// segment with a synopsis), in which case SealedSpread is 0.
	Reclusters     int64   `json:"reclusters"`
	SealedSpread   float64 `json:"sealed_spread"`
	SpreadMeasured bool    `json:"spread_measured"`
	// MappedBytes is the total size of the memory mappings backing sealed
	// segments (0 for heap-backed collections); HeapBytes the exact column
	// bytes resident on the Go heap. Their sum is the collection's exact
	// data footprint; the ratio shows how much of it the page cache, not
	// the heap, is carrying.
	MappedBytes int64 `json:"mapped_bytes"`
	HeapBytes   int64 `json:"heap_bytes"`
	// SIMD names the vector instruction set the kernels dispatch to
	// ("avx2", or "none" for the portable loops).
	SIMD string `json:"simd"`
	// Planner is the planner pool's serializable view.
	Planner PlannerPoolStats `json:"planner"`
	// Durability is the WAL/checkpoint gauge block of a collection opened
	// with OpenDurable; nil for in-memory collections.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// SegmentStats has one entry per segment in id order.
	SegmentStats []SegmentStats `json:"segment_stats"`
}

// TombstoneRatio returns the fraction of the collection's id slots that
// carry a delete mark — the maintenance signal a serving layer compacts
// on. An empty collection reports 0.
func (c *Collection) TombstoneRatio() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.store.Len()
	if n == 0 {
		return 0
	}
	return float64(n-c.store.Live()) / float64(n)
}

// StatsSnapshot returns a consistent point-in-time CollectionStats taken
// under the read lock: collection shape, tombstone ratio, the planner's
// pool gauges, and a per-segment summary (slots, live count, sealed
// flag, synopsis bounds).
func (c *Collection) StatsSnapshot() CollectionStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	segs, bases := c.store.Segments(), c.store.Bases()
	st := CollectionStats{
		Dims:         c.store.Dims(),
		Len:          c.store.Len(),
		Live:         c.store.Live(),
		Segments:     len(segs),
		MappedBytes:  c.store.MappedBytes(),
		SIMD:         kernel.SIMD(),
		Planner:      c.pool.Stats(),
		SegmentStats: make([]SegmentStats, len(segs)),
	}
	if st.Len > 0 {
		st.TombstoneRatio = float64(st.Len-st.Live) / float64(st.Len)
	}
	st.Reclusters = c.reclusters
	st.SealedSpread, st.SpreadMeasured = c.sealedSpreadLocked()
	if ds, ok := c.walStatsLocked(); ok {
		st.Durability = &ds
	}
	for i, g := range segs {
		ss := SegmentStats{Base: bases[i], Len: g.Len(), Live: g.Live(), Sealed: g.Sealed(), Mapped: g.Mapped()}
		if !g.Mapped() {
			st.HeapBytes += int64(g.Len()) * int64(st.Dims) * 8
		}
		if syn, ok := core.SummarizeSynopsis(segmentView(g, bases[i], g.Store)); ok {
			syn := syn
			ss.Synopsis = &syn
		}
		st.SegmentStats[i] = ss
	}
	return st
}

// Dims returns the dimensionality.
func (c *Collection) Dims() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.store.Dims()
}

// Len returns the number of vector slots, including delete-marked ones.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.store.Len()
}

// Live returns the number of searchable vectors.
func (c *Collection) Live() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.store.Live()
}

// NumSegments returns the number of physical segments (sealed plus the
// active one).
func (c *Collection) NumSegments() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.store.NumSegments()
}

// Vector returns a copy of vector id. It panics on an out-of-range id;
// callers racing writers (or background compaction, which remaps ids)
// should use TryVector.
func (c *Collection) Vector(id int) []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.errIfUnmapped(); err != nil {
		panic("bond: Vector on closed collection with mapped segments")
	}
	return c.store.Row(id)
}

// TryVector returns a copy of vector id, or ok=false when id is outside
// the collection. The bounds check and the read happen under one lock
// acquisition, so it is safe against concurrent compaction — the
// check-then-Vector idiom is not.
func (c *Collection) TryVector(id int) (v []float64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id < 0 || id >= c.store.Len() || c.errIfUnmapped() != nil {
		return nil, false
	}
	return c.store.Row(id), true
}

// errIfUnmapped returns ErrClosed when Close has released the memory
// mappings some sealed segments' columns aliased — from that point the
// column data is simply gone, so read paths refuse instead of faulting.
// Heap-backed collections never trip this: their reads keep working after
// Close, as they always have. Callers hold at least the read lock.
func (c *Collection) errIfUnmapped() error {
	if c.store.MappingsReleased() {
		return ErrClosed
	}
	return nil
}

// planView is the planner's view of the current segments: the engine view
// of each segment plus, for sealed segments, the lazily built compressed
// access paths (column codes for the compressed filter, row-major codes for
// the VA-File), and the moments of the sealed segments' rows, computed on
// the first query that asks for them (see orderMoments).
type planView struct {
	segs    []plan.Segment
	sealed  int // the sealed segments, a prefix of segs
	moments atomic.Pointer[core.Moments]
}

// planView returns the current planner view. It is memoized until a writer
// changes the segment list (see invalidatePlanCacheIfSealed), so the
// steady-state query path allocates nothing here, with or without a writer
// appending. Callers must hold at least the read lock for the duration of
// the search.
func (c *Collection) planView() *planView {
	if cached := c.planCache.Load(); cached != nil {
		return cached
	}
	c.planCacheMu.Lock()
	defer c.planCacheMu.Unlock()
	if cached := c.planCache.Load(); cached != nil {
		return cached
	}
	segs, bases := c.store.Segments(), c.store.Bases()
	v := &planView{segs: make([]plan.Segment, len(segs))}
	for i, g := range segs {
		v.segs[i] = plan.Segment{
			View:   segmentView(g, bases[i], g.Store),
			Sealed: g.Sealed(),
		}
		if g.Sealed() {
			v.sealed = i + 1
			g := g
			v.segs[i].Codes = func() *vstore.QuantStore { return g.Codes(unitQuantizer) }
			// The File wrapper is memoized alongside the cached segment
			// list, so repeated VA-File steps over the same segment reuse
			// one wrapper instead of re-wrapping the codes per query.
			var vaOnce sync.Once
			var va *vafile.File
			v.segs[i].VA = func() *vafile.File {
				vaOnce.Do(func() {
					qz, codes := g.RowCodes(unitQuantizer)
					va = vafile.FromRowCodes(qz, g.Len(), g.Dims(), codes)
				})
				return va
			}
		}
	}
	c.planCache.Store(v)
	return v
}

// orderMoments returns the moments the planner orders the dimensions of
// the specs by (core.Options.Moments): those of v's sealed rows when some
// spec is a distance query in the default order, nil otherwise — so a
// collection that only serves histogram queries never sums a column. They
// are computed once per view: the first query after an append that sealed
// segments folds in only the new ones, the first after open, compaction or
// recluster sums every sealed segment. Either way each segment is summed in
// row order and the segments are added in segment order, so the moments —
// and with them every plan — are a function of the sealed segments alone:
// the same bits after a restart, mmap'd or not, and on a follower. Delete
// marks are ignored, as the active segment is: any moments give exact
// answers, only the pruning speed depends on them.
func (c *Collection) orderMoments(v *planView, specs ...QuerySpec) *core.Moments {
	need := false
	for i := range specs {
		need = need || specs[i].Criterion.Distance() && specs[i].Order == OrderQueryDesc
	}
	if !need {
		return nil
	}
	if m := v.moments.Load(); m != nil {
		return m
	}
	c.planCacheMu.Lock()
	defer c.planCacheMu.Unlock()
	if m := v.moments.Load(); m != nil {
		return m
	}
	for i := c.sums.Sources; i < v.sealed; i++ {
		c.sums.Add(v.segs[i].View.Src)
	}
	m := c.sums.Moments()
	v.moments.Store(m)
	return m
}

// segmentView is the engine view of src at base, carrying synopsis's
// min/max slices — live views, so the active segment's widen as it grows.
func segmentView(src core.Source, base int, synopsis *vstore.Store) core.SegmentView {
	lo, hi := synopsis.DimRanges()
	return core.SegmentView{Src: src, Base: base, Lo: lo, Hi: hi}
}

// invalidatePlanCache drops the memoized planner view and the moment sums.
// Every writer that may replace a segment — seal, compact, recluster, open —
// calls it under the write lock.
func (c *Collection) invalidatePlanCache() {
	c.planCache.Store(nil)
	c.sums = core.MomentSums{}
}

// invalidatePlanCacheIfSealed is what an append calls, under the write
// lock, with the segment count from before it: the memoized list holds
// segment pointers, bases, sealed flags and live synopsis views, none of
// which an append into the active segment (or a tombstone, which calls
// nothing) changes — lengths, delete marks and the widened synopsis are
// read through them under the read lock. Only an append that sealed the
// active segment and opened a new one outdates the list. The moment sums
// stay: the segments they cover are still the first sealed ones.
func (c *Collection) invalidatePlanCacheIfSealed(segmentsBefore int) {
	if c.store.NumSegments() != segmentsBefore {
		c.planCache.Store(nil)
	}
}

// snapshotSource fixes a segment's delete marks at snapshot time, so the
// snapshot stays consistent when a writer deletes concurrently.
type snapshotSource struct {
	core.Source
	deleted *bitmap.Bitmap
}

func (s snapshotSource) DeletedBitmap() *bitmap.Bitmap { return s.deleted.Clone() }

// DeletedView must shadow the embedded segment's: the snapshot pins the
// delete marks of snapshot time, while the segment's view is live.
func (s snapshotSource) DeletedView() *bitmap.Bitmap { return s.deleted }

// snapshotViews returns segment views that remain valid after the lock is
// released: sealed segments share columns (immutable) with delete marks
// pinned, and the active segment is deep-copied. Callers must hold at
// least the read lock while calling.
func (c *Collection) snapshotViews() []core.SegmentView {
	segs, bases := c.store.Segments(), c.store.Bases()
	views := make([]core.SegmentView, len(segs))
	for i, g := range segs {
		if g.Sealed() {
			snap := snapshotSource{Source: g, deleted: g.DeletedBitmap()}
			views[i] = segmentView(snap, bases[i], g.Store)
		} else {
			cp := g.Store.Clone()
			views[i] = segmentView(cp, bases[i], cp)
		}
	}
	return views
}

// Query plans and executes a query: the spec is turned into a Plan — an
// ordered list of per-segment steps, each assigned an access path (plain
// BOND, 8-bit compressed filter-and-refine, VA-File filter, or exact scan)
// from the segment's synopsis and the fixed cost priors — and the plan runs
// through the shared engine, skipping segments whose synopses prove them
// hopeless against the running k-th best score κ and carrying κ into the
// BOND segments that do run, so each prunes against the best answer found
// so far. Executing a query leaves nothing behind that a later plan reads.
// The answer is exact unless the spec sets Tolerance or Deadline.
//
// The hot path is allocation-free in steady state: the plan, the engine
// scratch (scores, candidate lists, heaps, bound tables), and the planner
// segment list are all pooled per collection, so a repeated Query performs
// ~2 allocations — the returned result list and its step log — weighted
// and subspace specs included.
func (c *Collection) Query(spec QuerySpec) (QueryResult, error) {
	res, p, err := c.runQuery(spec, plan.NewReusable)
	if p != nil {
		p.Release()
	}
	return res, err
}

// QueryExplain is Query returning the executed plan as well, with
// per-segment predicted and actual costs filled in for Plan.Explain.
func (c *Collection) QueryExplain(spec QuerySpec) (QueryResult, *QueryPlan, error) {
	return c.runQuery(spec, plan.New)
}

// runQuery plans spec with newPlan — pooled for Query, caller-owned for
// QueryExplain — and executes it under the read lock. The plan is returned
// whenever planning succeeded, even if execution then failed.
func (c *Collection) runQuery(spec QuerySpec, newPlan func([]plan.Segment, *core.Moments, plan.Spec, *plan.Pool) (*plan.Plan, error)) (QueryResult, *QueryPlan, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.errIfUnmapped(); err != nil {
		return QueryResult{}, nil, err
	}
	v := c.planView()
	p, err := newPlan(v.segs, c.orderMoments(v, spec), spec, &c.pool)
	if err != nil {
		return QueryResult{}, nil, err
	}
	res, err := plan.Execute(p)
	return res, p, err
}

// QueryBatch plans and executes many queries against one consistent
// snapshot of the collection, sharing what a loop of Query calls pays N
// times: the read lock is taken once, the planner's segment list is shared,
// and — the part that shows in the time — the segments are read once per
// group of queries rather than once per query.
// The specs fan out over a bounded worker pool (one goroutine per logical
// CPU); each worker takes up to sixteen at a time and co-schedules them
// through one pooled lane of segment-sized buffers: it repeatedly picks the
// lowest-numbered segment any of the group's queries wants next and runs
// every query waiting on that segment back to back, so the segment's
// columns come from L3 or memory for the first and from L2 for the rest.
// Every query still visits its own segments in its own best-bound-first
// order, under its own running κ and skip tests — the same executor steps
// Query takes, merely interleaved with its group's — so results are
// positionally aligned with specs and identical to what Query would have
// returned for each spec, Stats and EXPLAIN included.
//
// Specs are independent: they may mix criteria, strategies, and k. A
// failing spec aborts the batch, which returns the lowest-indexed
// observed failure (wrapped with the spec's index); per-spec tolerances
// apply as in Query, and so do per-spec deadlines, each checked before
// every step of its own query — steps that now wait their turn among the
// group's, so a deadline can pass with fewer of its segments searched than
// a lone Query would have reached.
func (c *Collection) QueryBatch(specs []QuerySpec) ([]QueryResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.errIfUnmapped(); err != nil {
		return nil, err
	}
	v := c.planView()
	results, i, err := plan.ExecuteBatch(v.segs, c.orderMoments(v, specs...), specs, &c.pool)
	if err != nil {
		return nil, fmt.Errorf("bond: batch query %d: %w", i, err)
	}
	return results, nil
}

// AsFeature wraps a snapshot of the collection as one component of a
// multi-feature query. The snapshot stays consistent if writers mutate
// the collection before the MultiSearch runs.
func (c *Collection) AsFeature(query []float64, weight float64) Feature {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.errIfUnmapped(); err != nil {
		panic("bond: AsFeature on closed collection with mapped segments")
	}
	return Feature{Segments: c.snapshotViews(), Query: query, Weight: weight}
}

// MultiSearch answers a multi-feature query over several collections
// holding the same objects (Section 8.2), using synchronized BOND.
// Synchronized multi-feature search advances all features in lockstep
// across all their segments, so there is no per-segment path choice for a
// planner to make.
func MultiSearch(features []Feature, opts MultiOptions) (MultiResult, error) {
	return multifeature.Search(features, opts)
}

// NewExclusion returns an empty exclusion bitmap sized to the collection,
// for combining k-NN search with prior selection predicates: set the bits
// of the objects a predicate ruled out and pass it as QuerySpec.Exclude.
func (c *Collection) NewExclusion() *bitmap.Bitmap {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return bitmap.New(c.store.Len())
}

// Cluster runs exact k-means over the live vectors with BOND-style
// branch-and-bound assignment on the decomposed columns — the clustering
// direction the paper's Section 9 proposes as future work. The segments
// are flattened into one store for the duration of the clustering (a
// single-segment collection clusters in place, copy-free).
func (c *Collection) Cluster(opts ClusterOptions) (ClusterResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.errIfUnmapped(); err != nil {
		return ClusterResult{}, err
	}
	return cluster.KMeans(c.store.Flatten(), opts)
}

// QueryUsefulness scores a query's expected pruning power in [0, 1]
// (Section 9's query-quality proposal): ~0 for a uniform query on which
// branch-and-bound cannot help, approaching 1 for queries whose mass (or
// weight) concentrates on few dimensions. Pass nil weights for unweighted
// queries.
func QueryUsefulness(q, weights []float64, criterion Criterion) float64 {
	return core.Usefulness(q, weights, criterion)
}

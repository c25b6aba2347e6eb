package vstore

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"bond/internal/iofs"
	"bond/internal/quant"
)

// DefaultSegmentSize is the seal threshold of a segmented store: once the
// active segment holds this many vectors it is frozen and a fresh active
// segment takes over.
const DefaultSegmentSize = 4096

// Segment is one horizontal fragment of a segmented store: a flat Store
// plus a sealed flag and lazily built 8-bit compressed fragments.
//
// A sealed segment's columns and totals never change again (deletes are
// only bitmap marks, compaction replaces the whole Segment), so its codes
// are built at most once and shared by every subsequent compressed search.
type Segment struct {
	*Store
	sealed    bool
	codesOnce sync.Once
	codes     *QuantStore
	rowOnce   sync.Once
	rowCodes  []uint8

	// persistID is the segment's durable identity: assigned once (by the
	// first checkpoint that captures the segment, or by recovery) and
	// never reused, it names the write-once seg-<id>.seg file holding the
	// segment's columns. 0 means not yet persisted.
	persistID uint64

	// mapped reports that the segment's columns alias a memory-mapped
	// file (recovery mapped its v2 seg file): they cost no heap, fault in
	// on first scan, and become invalid when the store's mappings are
	// released.
	mapped bool
}

// Sealed reports whether the segment is frozen (immutable columns).
func (g *Segment) Sealed() bool { return g.sealed }

// Mapped reports whether the segment's columns alias a memory-mapped
// segment file rather than heap memory.
func (g *Segment) Mapped() bool { return g.mapped }

// Codes returns the segment's 8-bit compressed fragments, building them on
// first use with the given quantizer. Only sealed segments may be encoded
// (an active segment's columns still move); the first caller's quantizer
// wins. Safe for concurrent use.
func (g *Segment) Codes(q *quant.Quantizer) *QuantStore {
	if !g.sealed {
		panic("vstore: Codes on unsealed segment")
	}
	g.codesOnce.Do(func() { g.codes = g.Store.Quantize(q) })
	return g.codes
}

// RowCodes returns the segment's 8-bit codes transposed into the row-major
// layout a VA-File scans, built once from the column codes and cached for
// every subsequent VA-File access path. The returned quantizer is the one
// the codes were built with (the first caller's, as in Codes). Safe for
// concurrent use; panics on an unsealed segment.
func (g *Segment) RowCodes(q *quant.Quantizer) (*quant.Quantizer, []uint8) {
	qs := g.Codes(q)
	g.rowOnce.Do(func() {
		dims := g.Dims()
		rc := make([]uint8, g.Len()*dims)
		for d, col := range qs.Codes {
			for id, c := range col {
				rc[id*dims+d] = c
			}
		}
		g.rowCodes = rc
	})
	return qs.Q, g.rowCodes
}

// SegStore is a segmented vertically decomposed collection: a list of
// immutable sealed segments followed by one mutable active segment.
// Global object identifiers are positional across the segment list in
// order, so segment i covers ids [base_i, base_i+len_i).
//
// Appends go to the active segment, which seals at the size threshold.
// Deletes stay bitmap-marked inside their segment until Compact rewrites
// segments whose tombstone ratio crosses a threshold. SegStore itself is
// not safe for concurrent use; bond.Collection adds the locking contract.
type SegStore struct {
	dims    int
	segSize int
	segs    []*Segment // invariant: segs[len-1] is the active segment
	bases   []int      // bases[i] = global id of segs[i]'s local id 0

	// nextSegID is the next unassigned persistent segment id (see
	// Segment.persistID); 0 until the first checkpoint or recovery.
	nextSegID uint64

	// mapper and mappings are the memory-mapped segment files recovery
	// opened: the mappings outlive the segments they back (compaction may
	// drop a segment while a snapshot still reads its columns), so they
	// are owned here and released only by ReleaseMappings — the
	// collection's Close. released latches so late readers can be refused
	// instead of touching unmapped pages.
	mapper   iofs.MapFS
	mappings [][]byte
	released bool
}

// NewSegmented returns an empty segmented store. segSize <= 0 selects
// DefaultSegmentSize. It panics if dims < 1.
func NewSegmented(dims, segSize int) *SegStore {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	s := &SegStore{dims: dims, segSize: segSize}
	s.segs = []*Segment{{Store: New(dims)}}
	s.bases = []int{0}
	return s
}

// SegmentedFromVectors builds a segmented store from a row-major
// collection. The partial tail segment is sealed too — a bulk load is a
// read-mostly signal, and sealing gives the tail synopses and codes
// immediately (later appends open a fresh active segment). It panics on
// empty or ragged input.
func SegmentedFromVectors(vectors [][]float64, segSize int) *SegStore {
	if len(vectors) == 0 {
		panic("vstore: SegmentedFromVectors on empty collection")
	}
	s := NewSegmented(len(vectors[0]), segSize)
	s.AppendBatch(vectors)
	s.SealActive()
	return s
}

// Dims returns the dimensionality.
func (s *SegStore) Dims() int { return s.dims }

// SegmentSize returns the seal threshold.
func (s *SegStore) SegmentSize() int { return s.segSize }

// NumSegments returns the number of segments (sealed plus active).
func (s *SegStore) NumSegments() int { return len(s.segs) }

// Segments returns the segment list in id order (the last one active).
// The returned slice is a copy; the segments themselves are shared.
func (s *SegStore) Segments() []*Segment {
	return append([]*Segment(nil), s.segs...)
}

// Bases returns the global id of each segment's first slot.
func (s *SegStore) Bases() []int { return append([]int(nil), s.bases...) }

// Len returns the total number of slots, including delete-marked ones.
func (s *SegStore) Len() int {
	last := len(s.segs) - 1
	return s.bases[last] + s.segs[last].Len()
}

// Live returns the number of non-deleted vectors.
func (s *SegStore) Live() int {
	live := 0
	for _, g := range s.segs {
		live += g.Live()
	}
	return live
}

// registerMapping records a memory mapping backing one or more of the
// store's segments, to be released by ReleaseMappings.
func (s *SegStore) registerMapping(mapper iofs.MapFS, b []byte) {
	s.mapper = mapper
	s.mappings = append(s.mappings, b)
}

// MappedBytes returns the total size of the memory-mapped segment files
// backing the store — bytes that live in the page cache, not the Go heap.
func (s *SegStore) MappedBytes() int64 {
	var n int64
	for _, b := range s.mappings {
		n += int64(len(b))
	}
	return n
}

// ReleaseMappings unmaps every memory-mapped segment file and latches the
// store as released: the columns of mapped segments are invalid from here
// on, and MappingsReleased reports true so readers can refuse instead of
// faulting. Idempotent; a store with no mappings stays readable.
func (s *SegStore) ReleaseMappings() error {
	if len(s.mappings) == 0 {
		return nil
	}
	var first error
	for _, b := range s.mappings {
		if err := s.mapper.UnmapFile(b); err != nil && first == nil {
			first = err
		}
	}
	s.mappings = nil
	s.released = true
	return first
}

// MappingsReleased reports whether ReleaseMappings dropped mappings some
// segments' columns aliased — after which reading them is invalid.
func (s *SegStore) MappingsReleased() bool { return s.released }

// ValueRange returns the smallest and largest coefficient over every
// segment. An empty store returns (+Inf, −Inf).
func (s *SegStore) ValueRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, g := range s.segs {
		glo, ghi := g.ValueRange()
		lo = math.Min(lo, glo)
		hi = math.Max(hi, ghi)
	}
	return lo, hi
}

// active returns the mutable tail segment.
func (s *SegStore) active() *Segment { return s.segs[len(s.segs)-1] }

// seal freezes the active segment and starts a fresh one. A segment
// sealed before it is full gives back its spare capacity.
func (s *SegStore) seal() {
	act := s.active()
	act.trim()
	act.sealed = true
	s.bases = append(s.bases, s.bases[len(s.bases)-1]+act.Len())
	s.segs = append(s.segs, &Segment{Store: New(s.dims)})
}

// SealActive force-seals the current active segment (a no-op when it is
// empty), e.g. to fix a layout before benchmarking.
func (s *SegStore) SealActive() {
	if s.active().Len() > 0 {
		s.seal()
	}
}

// Append adds a vector and returns its global id. A full active segment
// seals immediately (leaving a fresh empty active), so read-only phases
// after a bulk load get sealed segments — synopses and codes included —
// without waiting for one more write.
func (s *SegStore) Append(v []float64) int {
	return s.AppendBatch([][]float64{v})
}

// AppendBatch adds many vectors, spilling across segment boundaries as the
// active segment fills (full segments seal immediately, as in Append). It
// returns the global id of the first vector. The active segment's columns
// grow by doubling up to the segment size, so a full segment's columns
// have cap == len. It panics on a dimensionality mismatch before touching
// any segment.
func (s *SegStore) AppendBatch(vectors [][]float64) int {
	s.active().checkDims(vectors)
	first := s.Len()
	for len(vectors) > 0 {
		room := s.segSize - s.active().Len()
		chunk := vectors
		if len(chunk) > room {
			chunk = vectors[:room]
		}
		s.active().appendRows(chunk, s.segSize)
		vectors = vectors[len(chunk):]
		if s.active().Len() >= s.segSize {
			s.seal()
		}
	}
	return first
}

// locate maps a global id to its segment index and local id. It panics on
// a bad id.
func (s *SegStore) locate(id int) (seg, local int) {
	if id < 0 || id >= s.Len() {
		panic(fmt.Sprintf("vstore: id %d outside [0,%d)", id, s.Len()))
	}
	// First segment whose base exceeds id, minus one.
	seg = sort.SearchInts(s.bases, id+1) - 1
	return seg, id - s.bases[seg]
}

// Row reconstructs the vector with global id.
func (s *SegStore) Row(id int) []float64 {
	g, local := s.locate(id)
	return s.segs[g].Row(local)
}

// Delete marks the vector with global id as deleted.
func (s *SegStore) Delete(id int) {
	g, local := s.locate(id)
	s.segs[g].Delete(local)
}

// IsDeleted reports whether the vector with global id carries a delete mark.
func (s *SegStore) IsDeleted(id int) bool {
	g, local := s.locate(id)
	return s.segs[g].IsDeleted(local)
}

// Compact physically removes delete-marked vectors from every segment
// whose tombstone ratio is at least minRatio (so cold, barely-touched
// segments are never rewritten), and drops sealed segments that end up
// empty. It returns the old-global-id → new-global-id mapping (−1 for
// removed vectors). minRatio 0 rewrites every segment with at least one
// tombstone — the seed's full Reorganize behavior.
func (s *SegStore) Compact(minRatio float64) []int {
	mapping := make([]int, s.Len())
	var (
		newSegs  []*Segment
		newBases []int
		newBase  int
	)
	for i, g := range s.segs {
		base := s.bases[i]
		dead := g.Len() - g.Live()
		rewrite := dead > 0 && float64(dead) >= minRatio*float64(g.Len())
		n := g.Len()
		var local []int // old local id → new, nil when the segment is kept
		switch {
		case rewrite && g.sealed:
			g, local = compactSealed(g)
		case rewrite:
			local = g.Reorganize() // in place: the active store keeps its append capacity
		}
		for old := 0; old < n; old++ {
			switch {
			case local == nil:
				mapping[base+old] = newBase + old
			case local[old] < 0:
				mapping[base+old] = -1
			default:
				mapping[base+old] = newBase + local[old]
			}
		}
		if g.sealed && g.Len() == 0 {
			continue // fully dead sealed segment: drop it
		}
		newSegs = append(newSegs, g)
		newBases = append(newBases, newBase)
		newBase += g.Len()
	}
	if len(newSegs) == 0 || newSegs[len(newSegs)-1].sealed {
		newSegs = append(newSegs, &Segment{Store: New(s.dims)})
		newBases = append(newBases, newBase)
	}
	s.segs, s.bases = newSegs, newBases
	return mapping
}

// compactSealed builds a tombstone-free replacement for a sealed segment
// (the original is left untouched so in-flight snapshot readers stay
// valid) and returns it with the local old-id → new-id mapping.
func compactSealed(g *Segment) (*Segment, []int) {
	live := g.LiveIDs()
	mapping := make([]int, g.Len())
	for i := range mapping {
		mapping[i] = -1
	}
	for j, id := range live {
		mapping[id] = j
	}
	return gatherSealed(g.Dims(), []rowRun{{g.Store, live}}), mapping
}

// rowRun is a run of rows read from one store: their local ids, in the
// order they land in the gathered segment.
type rowRun struct {
	src *Store
	ids []int
}

// gatherSealed builds a tombstone-free sealed segment from runs of rows,
// in order. Each source column is read once per run.
func gatherSealed(dims int, runs []rowRun) *Segment {
	n := 0
	for _, r := range runs {
		n += len(r.ids)
	}
	ns := New(dims)
	for d := 0; d < dims; d++ {
		col, off := make([]float64, n), 0
		for _, r := range runs {
			src, dst := r.src.Column(d), col[off:off+len(r.ids)]
			for k, id := range r.ids {
				dst[k] = src[id]
				ns.observe(d, src[id])
			}
			off += len(r.ids)
		}
		ns.columns[d] = col
	}
	ns.totals = make([]float64, 0, n)
	for _, r := range runs {
		for _, id := range r.ids {
			ns.totals = append(ns.totals, r.src.Totals()[id])
		}
	}
	ns.n = n
	ns.growDeleted()
	return &Segment{Store: ns, sealed: true}
}

// Flatten returns the collection as a single flat Store with identical
// global ids (tombstones preserved). With exactly one segment the segment's
// own store is returned as a read-only view; otherwise the columns are
// copied, which costs O(n·dims).
func (s *SegStore) Flatten() *Store {
	return s.flatten(s.segs)
}

// FlattenSealed returns the sealed prefix — every segment but the active
// tail — as a single flat Store with identical global ids (tombstones
// preserved), or nil when no segment is sealed. With exactly one sealed
// segment that segment's own store is returned as a read-only view;
// otherwise the columns are copied. It is the input surface for
// whole-prefix analyses such as re-clustering, which must see the same
// global ids the segmented store uses.
func (s *SegStore) FlattenSealed() *Store {
	last := len(s.segs) - 1
	if last == 0 {
		return nil
	}
	return s.flatten(s.segs[:last])
}

// flatten concatenates segs, a non-empty prefix of s.segs, into one flat
// Store; a single segment is returned as its own store.
func (s *SegStore) flatten(segs []*Segment) *Store {
	if len(segs) == 1 {
		return segs[0].Store
	}
	f := New(s.dims)
	n := s.bases[len(segs)-1] + segs[len(segs)-1].Len()
	for d := 0; d < s.dims; d++ {
		col := make([]float64, 0, n)
		for _, g := range segs {
			col = append(col, g.Column(d)...)
		}
		f.columns[d] = col
		for _, x := range col {
			f.observe(d, x)
		}
	}
	totals := make([]float64, 0, n)
	for _, g := range segs {
		totals = append(totals, g.Totals()...)
	}
	f.totals = totals
	f.n = n
	f.growDeleted()
	for i, g := range segs {
		base := s.bases[i]
		g.deleted.ForEach(func(local int) { f.deleted.Set(base + local) })
	}
	return f
}

// Repartition replaces the sealed prefix with new sealed segments built
// from groups of live global ids — typically the clusters of a k-means
// run over FlattenSealed — so each rewritten segment holds one group and
// gets the tightest per-dimension synopses that group admits. Groups
// larger than the segment size split into consecutive chunks; empty
// groups are skipped. Tombstoned slots are dropped (a repartition is also
// a compaction of the sealed prefix). The active segment is reused
// as-is; only its base shifts. The originals are left untouched so
// in-flight snapshot readers stay valid.
//
// It returns the old-global-id → new-global-id mapping (−1 for dropped
// slots). Every id in groups must be a live sealed id appearing exactly
// once; violations panic — the caller derives groups from the same store
// state under the collection's write lock, so a bad group is a
// programmer error, not an input error.
func (s *SegStore) Repartition(groups [][]int) []int {
	last := len(s.segs) - 1
	sealedLen := s.bases[last]
	active := s.segs[last]

	seen := make([]bool, sealedLen)
	mapping := make([]int, s.Len())
	for id := 0; id < sealedLen; id++ {
		mapping[id] = -1
	}
	var (
		newSegs  []*Segment
		newBases []int
		newBase  int
	)
	for _, grp := range groups {
		for off := 0; off < len(grp); off += s.segSize {
			chunk := grp[off:min(off+s.segSize, len(grp))]
			var runs []rowRun
			for j, id := range chunk {
				if id < 0 || id >= sealedLen {
					panic(fmt.Sprintf("vstore: Repartition id %d outside sealed prefix [0,%d)", id, sealedLen))
				}
				if seen[id] {
					panic(fmt.Sprintf("vstore: Repartition id %d in two groups", id))
				}
				seen[id] = true
				g, local := s.locate(id)
				if s.segs[g].IsDeleted(local) {
					panic(fmt.Sprintf("vstore: Repartition of deleted id %d", id))
				}
				if len(runs) == 0 || runs[len(runs)-1].src != s.segs[g].Store {
					runs = append(runs, rowRun{src: s.segs[g].Store})
				}
				runs[len(runs)-1].ids = append(runs[len(runs)-1].ids, local)
				mapping[id] = newBase + j
			}
			newSegs = append(newSegs, gatherSealed(s.dims, runs))
			newBases = append(newBases, newBase)
			newBase += len(chunk)
		}
	}
	for j := 0; j < active.Len(); j++ {
		mapping[sealedLen+j] = newBase + j
	}
	newSegs = append(newSegs, active)
	newBases = append(newBases, newBase)
	s.segs, s.bases = newSegs, newBases
	return mapping
}

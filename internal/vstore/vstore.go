// Package vstore implements the decomposition storage model the paper
// builds on: a collection of N-dimensional vectors is fragmented vertically
// into N single-dimension columns plus a per-vector total side table.
//
// Object identifiers are the densely ascending positions 0…n−1, so they are
// never materialized (the "void head" of Section 6.1) and every column
// access is a positional lookup. Updates follow Section 6.2: appends extend
// every column, deletions are marked in a bitmap until a periodic
// Reorganize compacts the collection, and a differential batch buffer
// groups appends the way a differential file would.
package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bond/internal/bitmap"
	"bond/internal/quant"
)

// Store is a vertically decomposed collection of fixed-dimensionality
// vectors.
type Store struct {
	dims    int
	n       int
	columns [][]float64    // columns[d][id] = coefficient d of vector id
	totals  []float64      // totals[id] = T(v) = Σ_d v_d
	deleted *bitmap.Bitmap // delete marks (Section 6.2); nil bits live

	// Running value range over every coefficient ever appended
	// (conservative across deletes). The Euclidean pruning bounds require
	// data inside the unit hyper-box; the search layer checks this range.
	minVal, maxVal float64

	// Per-dimension value ranges (conservative across deletes, recomputed
	// by Reorganize). These are the segment synopses the segmented store
	// uses to bound a segment's best possible score and skip it wholesale.
	dimMin, dimMax []float64
}

// New returns an empty store for dims-dimensional vectors.
// It panics if dims < 1.
func New(dims int) *Store {
	if dims < 1 {
		panic(fmt.Sprintf("vstore: dims must be >= 1, got %d", dims))
	}
	s := &Store{
		dims:    dims,
		columns: make([][]float64, dims),
		deleted: bitmap.New(0),
		minVal:  math.Inf(1),
		maxVal:  math.Inf(-1),
		dimMin:  make([]float64, dims),
		dimMax:  make([]float64, dims),
	}
	for d := 0; d < dims; d++ {
		s.dimMin[d] = math.Inf(1)
		s.dimMax[d] = math.Inf(-1)
	}
	return s
}

// ValueRange returns the smallest and largest coefficient ever stored
// (conservative: deletions do not shrink it). An empty store returns
// (+Inf, −Inf).
func (s *Store) ValueRange() (lo, hi float64) { return s.minVal, s.maxVal }

func (s *Store) observe(d int, x float64) {
	if x < s.minVal {
		s.minVal = x
	}
	if x > s.maxVal {
		s.maxVal = x
	}
	if x < s.dimMin[d] {
		s.dimMin[d] = x
	}
	if x > s.dimMax[d] {
		s.dimMax[d] = x
	}
}

// DimRange returns a conservative range covering every coefficient of
// dimension d (exact after Reorganize, conservative across deletes). An
// empty store returns (+Inf, −Inf). It panics on a bad dimension.
func (s *Store) DimRange(d int) (lo, hi float64) {
	if d < 0 || d >= s.dims {
		panic(fmt.Sprintf("vstore: dimension %d outside [0,%d)", d, s.dims))
	}
	return s.dimMin[d], s.dimMax[d]
}

// DimRanges returns the per-dimension synopsis as live views: lo[d] and
// hi[d] are DimRange(d). The slices alias the store's own and are never
// reallocated, so a holder sees every later append; callers must treat them
// as read-only and read them under the lock that orders them after writers.
func (s *Store) DimRanges() (lo, hi []float64) { return s.dimMin, s.dimMax }

// FromVectors builds a store from a row-major collection. It panics on
// ragged input.
func FromVectors(vectors [][]float64) *Store {
	if len(vectors) == 0 {
		panic("vstore: FromVectors on empty collection")
	}
	s := New(len(vectors[0]))
	s.AppendBatch(vectors)
	return s
}

// Dims returns the dimensionality.
func (s *Store) Dims() int { return s.dims }

// Len returns the total number of slots, including delete-marked ones.
func (s *Store) Len() int { return s.n }

// Live returns the number of non-deleted vectors.
func (s *Store) Live() int { return s.n - s.deleted.Count() }

// Column returns the d-th dimension column as a live view: the returned
// slice aliases the store's backing array. Callers must treat it as
// read-only — writing through it corrupts the store and its synopses — and
// must not hold it across an Append/AppendBatch (which may reallocate the
// column) or a Reorganize (which rewrites it in place).
func (s *Store) Column(d int) []float64 {
	if d < 0 || d >= s.dims {
		panic(fmt.Sprintf("vstore: column %d outside [0,%d)", d, s.dims))
	}
	return s.columns[d]
}

// Totals returns the per-vector totals T(v) side table as a live view: the
// returned slice aliases the store's backing array. Callers must treat it
// as read-only — the search layer derives pruning bounds from it, so a
// stray write silently breaks exactness — and must not hold it across an
// Append/AppendBatch or Reorganize.
func (s *Store) Totals() []float64 { return s.totals }

// Row reconstructs vector id from the columns. It panics on a bad id.
func (s *Store) Row(id int) []float64 {
	s.check(id)
	v := make([]float64, s.dims)
	for d := 0; d < s.dims; d++ {
		v[d] = s.columns[d][id]
	}
	return v
}

// Append adds a vector and returns its id. It panics on a dimensionality
// mismatch.
func (s *Store) Append(v []float64) int {
	return s.AppendBatch([][]float64{v})
}

// AppendBatch adds many vectors at once — the batch-update path that
// Section 6.2 recommends for vertically fragmented collections. It returns
// the id of the first appended vector. It panics on a dimensionality
// mismatch before touching any column, so a bad batch leaves the store as
// it was.
func (s *Store) AppendBatch(vectors [][]float64) int {
	s.checkDims(vectors)
	return s.appendRows(vectors, 0)
}

// checkDims panics unless every vector has the store's dimensionality.
func (s *Store) checkDims(vectors [][]float64) {
	for _, v := range vectors {
		if len(v) != s.dims {
			panic(fmt.Sprintf("vstore: vector has %d dims, store has %d", len(v), s.dims))
		}
	}
}

// appendRows appends vectors of checked dimensionality. Columns grow by
// doubling, so filling a store batch by batch copies each row a constant
// number of times. limit > 0 is the segment size: a growth that would
// reach half of it goes straight to it instead, so a segment filled to
// its seal threshold ends with cap == len.
func (s *Store) appendRows(vectors [][]float64, limit int) int {
	first := s.n
	need := s.n + len(vectors)
	size := max(need, 2*s.n)
	if limit > 0 && 2*size >= limit {
		size = max(need, limit)
	}
	for d, col := range s.columns {
		s.columns[d] = reserve(col, need, size)
	}
	s.totals = reserve(s.totals, need, size)
	for i, v := range vectors {
		total := 0.0
		for d, x := range v {
			s.columns[d][first+i] = x
			total += x
			s.observe(d, x)
		}
		s.totals[first+i] = total
	}
	s.n = need
	s.growDeleted()
	return first
}

// reserve returns col extended to length need, reallocated to capacity
// size when its capacity is short of need.
func reserve(col []float64, need, size int) []float64 {
	if cap(col) >= need {
		return col[:need]
	}
	grown := make([]float64, need, size)
	copy(grown, col)
	return grown
}

// trim reallocates any column with spare capacity to its exact length, so
// a sealed segment keeps no slack on the heap.
func (s *Store) trim() {
	for d, col := range s.columns {
		if cap(col) > len(col) {
			s.columns[d] = append(make([]float64, 0, len(col)), col...)
		}
	}
	if cap(s.totals) > len(s.totals) {
		s.totals = append(make([]float64, 0, len(s.totals)), s.totals...)
	}
}

func (s *Store) growDeleted() {
	if s.deleted.Len() == s.n {
		return
	}
	grown := bitmap.New(s.n)
	s.deleted.ForEach(func(i int) { grown.Set(i) })
	s.deleted = grown
}

// Delete marks vector id as deleted. Marked vectors stay in the columns
// until Reorganize. Deleting twice is a no-op.
func (s *Store) Delete(id int) {
	s.check(id)
	s.deleted.Set(id)
}

// IsDeleted reports whether id carries a delete mark.
func (s *Store) IsDeleted(id int) bool {
	s.check(id)
	return s.deleted.Get(id)
}

// DeletedBitmap returns a copy of the delete-mark bitmap, suitable for
// initializing a search's candidate set (live = NOT deleted).
func (s *Store) DeletedBitmap() *bitmap.Bitmap { return s.deleted.Clone() }

// DeletedView returns the live delete-mark bitmap without copying — the
// allocation-free counterpart of DeletedBitmap for hot-path readers that
// finish with it before releasing the collection's lock. Callers must
// treat it as read-only and must not hold it across a Delete, Reorganize,
// or append (growth replaces the bitmap).
func (s *Store) DeletedView() *bitmap.Bitmap { return s.deleted }

// LiveIDs returns the identifiers of all live vectors in ascending order.
func (s *Store) LiveIDs() []int {
	out := make([]int, 0, s.Live())
	for id := 0; id < s.n; id++ {
		if !s.deleted.Get(id) {
			out = append(out, id)
		}
	}
	return out
}

// Reorganize compacts the store, physically removing delete-marked vectors
// (the "periodic reorganization of the collection" of Section 6.2). It
// returns a mapping from old ids to new ids (−1 for removed vectors).
func (s *Store) Reorganize() []int {
	mapping := make([]int, s.n)
	next := 0
	for id := 0; id < s.n; id++ {
		if s.deleted.Get(id) {
			mapping[id] = -1
			continue
		}
		mapping[id] = next
		if next != id {
			for d := range s.columns {
				s.columns[d][next] = s.columns[d][id]
			}
			s.totals[next] = s.totals[id]
		}
		next++
	}
	for d := range s.columns {
		s.columns[d] = s.columns[d][:next]
	}
	s.totals = s.totals[:next]
	s.n = next
	s.deleted = bitmap.New(next)
	s.recomputeRanges()
	return mapping
}

// recomputeRanges rebuilds the global and per-dimension value ranges from
// the surviving data, so synopses tighten after a reorganization.
func (s *Store) recomputeRanges() {
	s.minVal, s.maxVal = math.Inf(1), math.Inf(-1)
	for d := range s.columns {
		s.dimMin[d], s.dimMax[d] = math.Inf(1), math.Inf(-1)
		for _, x := range s.columns[d] {
			s.observe(d, x)
		}
	}
}

func (s *Store) check(id int) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("vstore: id %d outside [0,%d)", id, s.n))
	}
}

// QuantStore holds the 8-bit compressed fragments of a store: one code
// column per dimension (Section 7.4 / Figure 9).
type QuantStore struct {
	Q     *quant.Quantizer
	Codes [][]uint8 // Codes[d][id]
}

// Clone returns a deep copy that shares no mutable state with the
// receiver — the snapshot primitive behind the collection's lock-free
// multi-feature snapshots.
func (s *Store) Clone() *Store {
	c := New(s.dims)
	c.n = s.n
	for d := range s.columns {
		c.columns[d] = append([]float64(nil), s.columns[d]...)
	}
	c.totals = append([]float64(nil), s.totals...)
	c.deleted = s.deleted.Clone()
	c.minVal, c.maxVal = s.minVal, s.maxVal
	copy(c.dimMin, s.dimMin)
	copy(c.dimMax, s.dimMax)
	return c
}

// Quantize builds the compressed fragments with the given quantizer.
func (s *Store) Quantize(q *quant.Quantizer) *QuantStore {
	qs := &QuantStore{Q: q, Codes: make([][]uint8, s.dims)}
	for d := range s.columns {
		qs.Codes[d] = q.EncodeColumn(s.columns[d])
	}
	return qs
}

// --- Persistence ----------------------------------------------------------

const (
	fileMagic   = "BONDSTR1"
	fileVersion = uint32(1)
)

// ErrCorrupt is returned when a store file fails validation.
var ErrCorrupt = errors.New("vstore: corrupt store file")

// Save writes the store in the binary column format: a header (magic,
// version, n, dims), every column in little-endian float64, the totals
// table, the delete bitmap as packed ids, and a CRC32 trailer over
// everything written.
func (s *Store) Save(w io.Writer) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	if _, err := mw.Write([]byte(fileMagic)); err != nil {
		return err
	}
	hdr := []uint64{uint64(fileVersion), uint64(s.n), uint64(s.dims)}
	for _, h := range hdr {
		if err := binary.Write(mw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	writeCol := func(col []float64) error {
		for _, x := range col {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
			if _, err := mw.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	for d := 0; d < s.dims; d++ {
		if err := writeCol(s.columns[d]); err != nil {
			return err
		}
	}
	if err := writeCol(s.totals); err != nil {
		return err
	}
	del := s.deleted.Slice()
	if err := binary.Write(mw, binary.LittleEndian, uint64(len(del))); err != nil {
		return err
	}
	for _, id := range del {
		if err := binary.Write(mw, binary.LittleEndian, uint64(id)); err != nil {
			return err
		}
	}
	// Trailer: CRC over all preceding bytes, written to w only.
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// Load reads a store written by Save, validating magic, version, and CRC.
func Load(r io.Reader) (*Store, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var version, n64, dims64 uint64
	for _, p := range []*uint64{&version, &n64, &dims64} {
		if err := binary.Read(tr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if uint32(version) != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	n, dims := int(n64), int(dims64)
	if dims < 1 || n < 0 || dims > 1<<20 || n > 1<<31 {
		return nil, fmt.Errorf("%w: implausible header n=%d dims=%d", ErrCorrupt, n, dims)
	}
	s := New(dims)
	s.n = n
	buf := make([]byte, 8)
	readCol := func() ([]float64, error) {
		// Grow incrementally instead of trusting the header's n up front:
		// a malformed header cannot force a huge allocation, because
		// memory stays bounded by the bytes actually present in the
		// stream (reads fail at the real EOF long before a hostile n is
		// reached).
		col := make([]float64, 0, min(n, 4096))
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(tr, buf); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			col = append(col, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
		}
		return col, nil
	}
	var err error
	for d := 0; d < dims; d++ {
		if s.columns[d], err = readCol(); err != nil {
			return nil, err
		}
		for _, x := range s.columns[d] {
			s.observe(d, x)
		}
	}
	if s.totals, err = readCol(); err != nil {
		return nil, err
	}
	var ndel uint64
	if err := binary.Read(tr, binary.LittleEndian, &ndel); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if ndel > uint64(n) {
		return nil, fmt.Errorf("%w: %d deletions for %d rows", ErrCorrupt, ndel, n)
	}
	s.deleted = bitmap.New(n)
	for i := uint64(0); i < ndel; i++ {
		var id uint64
		if err := binary.Read(tr, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if id >= uint64(n) {
			return nil, fmt.Errorf("%w: deleted id %d out of range", ErrCorrupt, id)
		}
		s.deleted.Set(int(id))
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return s, nil
}

package bond

// This file threads crash-safe durability through Collection: a
// write-ahead log (package wal) that records every mutation before it is
// acknowledged, and incremental checkpoints (package vstore's durable
// directory layout) that bound the log's replay cost without ever
// rewriting sealed segment files.
//
// The recovery contract, proven by the crash-injection matrix in
// crash_test.go:
//
//   - With FsyncAlways, no acknowledged mutation is ever lost: the
//     record is fsynced before the mutating call returns.
//   - Whatever the fsync policy and wherever the crash lands — mid-WAL
//     record, mid-checkpoint, between a manifest's write and its rename
//     — recovery succeeds and yields a consistent prefix of the
//     acknowledged mutation history. A torn final record is discarded;
//     a mutation can never surface partially.
//
// The checkpoint protocol: under the collection's write lock the WAL is
// fsynced and rotated to wal-<seq+1> and the store captured; outside the
// lock the capture is written (new sealed segment files once each, the
// active segment, then the manifest — whose rename is the commit point)
// and the old WAL deleted. A crash before the commit recovers from the
// old manifest plus both WAL files; after it, from the new manifest plus
// the new WAL. Mutations keep flowing into the new WAL while the
// checkpoint writes.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"bond/internal/iofs"
	"bond/internal/vstore"
	"bond/internal/wal"
)

// FsyncPolicy selects when a durable collection fsyncs its write-ahead
// log.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs every record before the mutation is
	// acknowledged: no acknowledged write can be lost, even to power
	// failure. The slowest and only fully safe policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background ticker every syncEvery: a
	// crash can lose at most the last interval's acknowledged writes,
	// but recovery still yields a consistent prefix.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system: fastest,
	// survives process crashes (the page cache persists) but not power
	// loss — recovery still yields a consistent prefix.
	FsyncNever
)

// String returns the policy name as the CLIs spell it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsync parses a policy name (always, interval, never) as the CLIs
// and bondd's -fsync flag spell it.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("bond: unknown fsync policy %q (want always, interval, or never)", s)
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dims is the dimensionality used when the path does not exist yet
	// and a fresh collection must be created. Opening an existing
	// collection ignores it; opening a missing path with Dims == 0 fails
	// with os.ErrNotExist.
	Dims int
	// SegmentSize is the seal threshold for a freshly created collection
	// (0 = the library default).
	SegmentSize int
	// Fsync is the WAL flush policy. The zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FS overrides the filesystem every byte of durable state moves
	// through — the crash-injection seam. nil selects the real one.
	FS iofs.FS
	// DisableMmap forces sealed segment files to be read into the heap
	// instead of memory-mapped. Mapping already degrades to a heap read
	// when the filesystem or platform cannot map (the in-memory test
	// filesystems of package crashfs, exotic OSes); this is the operator
	// override. The BOND_NO_MMAP environment variable, when non-empty,
	// forces it globally.
	DisableMmap bool
}

// Errors of the durability layer.
var (
	// ErrNotDurable reports a durability operation on a collection that
	// was not opened with OpenDurable.
	ErrNotDurable = errors.New("bond: collection is not durable")
	// ErrClosed reports a mutation or checkpoint after Close.
	ErrClosed = errors.New("bond: collection is closed")
)

// migratingSuffix marks the staging directory that releases which
// migrated snapshot files in place wrote beside the collection path. A
// crash after the snapshot file's removal left the whole collection in
// it; OpenDurable refuses to run in front of one.
const migratingSuffix = ".migrating"

// durability is the durable state hanging off a Collection opened with
// OpenDurable. The WAL writer pointer and sequence are guarded by the
// collection's lock (writers append under the write lock; Checkpoint
// rotates under it).
type durability struct {
	fs     iofs.FS
	dir    string
	policy FsyncPolicy

	w      *wal.Writer
	walSeq uint64
	closed bool

	// rotations remembers the final byte size of recently rotated-out
	// WAL generations (guarded by the collection lock). A replica that
	// consumed an old generation completely asks for its next byte after
	// the file is checkpoint-deleted; the recorded endpoint lets the
	// leader answer "that log is complete, rotate" instead of forcing a
	// snapshot re-bootstrap. In-memory only — after a leader restart a
	// follower parked exactly on a deleted boundary re-bootstraps, which
	// is correct, just slower.
	rotations map[uint64]int64

	// ckptMu serializes checkpoints; mutations proceed under the
	// collection lock while a checkpoint writes outside it.
	ckptMu sync.Mutex

	checkpoints  int64
	lastCkptUnix int64

	// Interval-policy sync loop lifecycle.
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// DurabilityStats is the durability gauge block a stats endpoint serves:
// the current WAL's size (replay cost of a crash right now) and the
// checkpoint history.
type DurabilityStats struct {
	Fsync              string `json:"fsync"`
	WALSeq             uint64 `json:"wal_seq"`
	WALBytes           int64  `json:"wal_bytes"`
	WALRecords         int64  `json:"wal_records"`
	Checkpoints        int64  `json:"checkpoints"`
	LastCheckpointUnix int64  `json:"last_checkpoint_unix,omitempty"`
}

// OpenDurable opens (or creates) a crash-safe collection rooted at path
// — a directory holding an incremental checkpoint (manifest, write-once
// sealed segment files, active-segment checkpoint) plus the write-ahead
// log of mutations since. Recovery loads the last committed checkpoint
// and replays the WAL tail, discarding a torn final record, so the
// result is always a consistent prefix of the acknowledged history —
// exactly all of it under FsyncAlways.
//
// A missing path is created when opts.Dims ≥ 1 and fails with
// os.ErrNotExist otherwise. A regular file at path (a whole-file
// snapshot of an earlier release) is refused with an error naming
// `bondgen -import` of an earlier release, which converts it offline;
// a missing path beside an interrupted in-place migration's staging
// directory is refused with the rename that finishes it, and a directory
// in an older layout with its remedy. Every refusal wraps
// vstore.ErrOlderLayout and changes nothing on disk. Callers must Close
// the collection to stop the interval-sync loop and release the log.
func OpenDurable(path string, opts DurableOptions) (*Collection, error) {
	fs := opts.FS
	if fs == nil {
		fs = iofs.OS{}
	}
	if info, err := fs.Stat(path); err == nil {
		if !info.IsDir {
			return nil, fmt.Errorf("bond: %s is a snapshot file, not a durable directory (%w): this release does not read it; "+
				"convert it with `bondgen -import %s -out <dir>` built from an earlier release", path, vstore.ErrOlderLayout, path)
		}
		return openDurableDir(fs, path, opts)
	}
	if _, merr := fs.Stat(path + migratingSuffix); merr == nil {
		return nil, fmt.Errorf("bond: %s is missing but an interrupted migration left it in %s (%w): finish the migration with `mv %s %s`",
			path, path+migratingSuffix, vstore.ErrOlderLayout, path+migratingSuffix, path)
	}
	if opts.Dims < 1 {
		return nil, fmt.Errorf("bond: open durable %s: %w (set DurableOptions.Dims to create)", path, os.ErrNotExist)
	}
	store := vstore.NewSegmented(opts.Dims, opts.SegmentSize)
	if err := initDurableDir(fs, path, store); err != nil {
		return nil, err
	}
	return openDurableDir(fs, path, opts)
}

// initDurableDir writes the initial checkpoint (WAL sequence 1) and an
// empty wal-1 into dir.
func initDurableDir(fs iofs.FS, dir string, store *vstore.SegStore) error {
	cs := store.CaptureCheckpoint(1)
	if err := vstore.WriteCheckpoint(fs, dir, cs); err != nil {
		return err
	}
	w, err := wal.Create(fs, filepath.Join(dir, vstore.WALFileName(1)))
	if err != nil {
		return err
	}
	return w.Close()
}

// openDurableDir recovers the committed checkpoint, replays the WAL
// tail, truncates any torn record, and hands back a live collection
// appending to the recovered log.
func openDurableDir(fs iofs.FS, dir string, opts DurableOptions) (*Collection, error) {
	ropts := vstore.RecoverOptions{DisableMmap: opts.DisableMmap || os.Getenv("BOND_NO_MMAP") != ""}
	store, m, err := vstore.RecoverDir(fs, dir, ropts)
	if errors.Is(err, vstore.ErrNoManifest) {
		// A half-created directory (crash before the first checkpoint
		// committed): nothing was ever acknowledged, so initializing
		// fresh is the correct recovery — when the caller can tell us the
		// shape.
		if opts.Dims < 1 {
			return nil, fmt.Errorf("bond: open durable %s: %w (set DurableOptions.Dims to create)", dir, os.ErrNotExist)
		}
		fresh := vstore.NewSegmented(opts.Dims, opts.SegmentSize)
		if ierr := initDurableDir(fs, dir, fresh); ierr != nil {
			return nil, ierr
		}
		store, m, err = vstore.RecoverDir(fs, dir, ropts)
	}
	if err != nil {
		return nil, err
	}
	vstore.CleanDir(fs, dir, m)
	c := &Collection{store: store}

	// Replay consecutive WAL files from the manifest's sequence: more
	// than one exists only when a crash interrupted a checkpoint after
	// its rotation. A torn or corrupt record ends the replay — and
	// invalidates everything after it, including later files.
	replaySeq := m.WALSeq
	var lastGood, lastRecs, lastLen int64
	lastFound := false
	for seq := m.WALSeq; ; seq++ {
		data, rerr := fs.ReadFile(filepath.Join(dir, vstore.WALFileName(seq)))
		if rerr != nil {
			if errors.Is(rerr, os.ErrNotExist) {
				break
			}
			return nil, rerr
		}
		replaySeq = seq
		recs, good, derr := wal.DecodeAll(data)
		for _, rec := range recs {
			// Mutations were staged before they were logged, so a record
			// the current state refuses means the log does not belong to
			// this checkpoint: corruption, reported rather than panicked.
			st, serr := stage(store, rec)
			if serr != nil {
				return nil, fmt.Errorf("bond: replay %s: %w", vstore.WALFileName(seq), serr)
			}
			c.apply(st)
		}
		lastFound, lastGood, lastRecs, lastLen = true, good, int64(len(recs)), int64(len(data))
		if derr != nil || good < int64(len(data)) {
			// Records in any later WAL were written on top of state this
			// file no longer reproduces; they were never durable as a
			// consistent prefix, so drop them.
			for later := seq + 1; ; later++ {
				if rmErr := fs.Remove(filepath.Join(dir, vstore.WALFileName(later))); rmErr != nil {
					break
				}
			}
			break
		}
	}

	// Reuse the replay's decode instead of re-reading the file: on a big
	// log that halves the open's I/O.
	walPath := filepath.Join(dir, vstore.WALFileName(replaySeq))
	var w *wal.Writer
	if lastFound {
		w, err = wal.OpenAppendAt(fs, walPath, lastGood, lastRecs, lastLen)
	} else {
		w, err = wal.Create(fs, walPath)
	}
	if err != nil {
		return nil, err
	}
	c.dur = &durability{
		fs:     fs,
		dir:    dir,
		policy: opts.Fsync,
		w:      w,
		walSeq: replaySeq,
	}
	if opts.Fsync == FsyncInterval {
		c.dur.stop = make(chan struct{})
		c.dur.done = make(chan struct{})
		go c.syncLoop()
	}
	return c, nil
}

// syncEvery is the FsyncInterval ticker period.
const syncEvery = 100 * time.Millisecond

// syncLoop is the FsyncInterval background flusher.
func (c *Collection) syncLoop() {
	defer close(c.dur.done)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-c.dur.stop:
			return
		case <-t.C:
			c.mu.RLock()
			w, closed := c.dur.w, c.dur.closed
			c.mu.RUnlock()
			if closed {
				return
			}
			_ = w.Sync()
		}
	}
}

// staged is a record checked against the state it is about to change,
// carrying what apply needs beyond the record: a recluster's partition.
type staged struct {
	rec    wal.Record
	groups [][]int
}

// stage checks rec against the current state of s without changing it:
// an add's vectors must have the store's dims and finite coordinates, a
// delete's id must be below Len, and a recluster needs k ≥ 1 and a live
// sealed row — whose partition stage computes, so apply cannot fail.
// It is the one check every state change passes: a mutator stages before
// logging (its caller's input is then refused), and WAL replay and a
// follower stage each logged record (a refusal there is corruption).
func stage(s *vstore.SegStore, rec wal.Record) (staged, error) {
	switch rec.Type {
	case wal.TypeAdd, wal.TypeAddBatch:
		for i, v := range rec.Vectors {
			if rec.Type == wal.TypeAdd {
				i = -1
			}
			if len(v) != s.Dims() {
				return staged{}, fmt.Errorf("%s has %d dims, collection has %d", vectorName(i), len(v), s.Dims())
			}
			if err := checkFinite(i, v); err != nil {
				return staged{}, err
			}
		}
	case wal.TypeDelete:
		if rec.ID >= uint64(s.Len()) {
			return staged{}, fmt.Errorf("delete of id %d outside [0,%d)", rec.ID, s.Len())
		}
	case wal.TypeCompact, wal.TypeSeal:
	case wal.TypeRecluster:
		groups, err := reclusterGroups(s, rec.K, rec.Seed)
		if err != nil {
			return staged{}, err
		}
		return staged{rec: rec, groups: groups}, nil
	default:
		return staged{}, fmt.Errorf("unknown record type %d", rec.Type)
	}
	return staged{rec: rec}, nil
}

// apply performs a staged record on the collection, under the write lock,
// and drops the memoized planner view as far as the change outdates it.
// It returns an add's first id and a compaction's or recluster's
// old-id → new-id mapping.
func (c *Collection) apply(st staged) (first int, mapping []int) {
	s := c.store
	switch st.rec.Type {
	case wal.TypeAdd, wal.TypeAddBatch:
		segments := s.NumSegments()
		first = s.AppendBatch(st.rec.Vectors)
		c.invalidatePlanCacheIfSealed(segments)
	case wal.TypeDelete:
		s.Delete(int(st.rec.ID)) // a tombstone leaves the memoized planner list valid
	case wal.TypeCompact:
		c.invalidatePlanCache()
		mapping = s.Compact(st.rec.Ratio)
	case wal.TypeSeal:
		c.invalidatePlanCache()
		s.SealActive()
	case wal.TypeRecluster:
		c.invalidatePlanCache()
		mapping = s.Repartition(st.groups)
	}
	return first, mapping
}

// commit is a mutator's transition after stage: the record is appended
// to the WAL — fsynced first under FsyncAlways — and only then applied.
// The caller holds the write lock; on error nothing changed.
func (c *Collection) commit(st staged) (first int, mapping []int, err error) {
	if c.dur != nil {
		if c.dur.closed {
			return 0, nil, ErrClosed
		}
		if err := c.dur.w.Append(st.rec, c.dur.policy == FsyncAlways); err != nil {
			return 0, nil, err
		}
	}
	first, mapping = c.apply(st)
	return first, mapping, nil
}

// checkFinite reports a NaN or ±Inf coordinate of v, naming vector i of a
// batch (i < 0: the one vector of an AddDurable) and the coordinate. A NaN
// coordinate makes its vector's score NaN, which no ranking orders, and an
// infinite one makes its segment's synopsis bound infinite, which fails
// every later query with core.ErrQueryRange. stage refuses such a vector
// whether a mutator, WAL replay or a follower offers it, and
// NewCollection* panic on one.
func checkFinite(i int, v []float64) error {
	for d, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s coordinate %d is %v", vectorName(i), d, x)
		}
	}
	return nil
}

// vectorName names vector i of a batch, or the one vector of an add when
// i < 0, in a refusal.
func vectorName(i int) string {
	if i < 0 {
		return "vector"
	}
	return "vector " + strconv.Itoa(i)
}

// AddDurable appends a vector and returns its id. Sealed segments and
// their compressed fragments are untouched; only the active segment
// changes. The id is returned only once the WAL accepted (and, under
// FsyncAlways, fsynced) the record; on error the collection is unchanged
// and the write unacknowledged. An in-memory collection logs nothing, so
// its error is always nil — as for every mutator below. AddDurable panics,
// before logging anything, on a vector of the wrong dimensionality or with
// a NaN or infinite coordinate; so does AddBatchDurable if any vector of
// the batch is one.
func (c *Collection) AddDurable(v []float64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := stage(c.store, wal.Record{Type: wal.TypeAdd, Vectors: [][]float64{v}})
	if err != nil {
		panic("bond: " + err.Error())
	}
	id, _, err := c.commit(st)
	return id, err
}

// AddBatchDurable appends many vectors, returning the first new id. The
// batch is logged as one atomic record: after a crash either every vector
// of the batch is recovered or none is.
func (c *Collection) AddBatchDurable(vectors [][]float64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := stage(c.store, wal.Record{Type: wal.TypeAddBatch, Vectors: vectors})
	if err != nil {
		panic("bond: " + err.Error())
	}
	if len(vectors) == 0 {
		return c.store.Len(), nil
	}
	first, _, err := c.commit(st)
	return first, err
}

// TryDeleteDurable marks vector id as deleted; it is skipped by every
// search until a compaction removes it physically. ok reports whether id
// was inside the collection, err whether the tombstone was durably logged.
// The bounds check and the mark happen under one lock acquisition, so it
// is safe against a concurrent compaction shrinking the id space.
func (c *Collection) TryDeleteDurable(id int) (ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 {
		return false, nil
	}
	st, serr := stage(c.store, wal.Record{Type: wal.TypeDelete, ID: uint64(id)})
	if serr != nil {
		return false, nil // id ≥ Len
	}
	if _, _, err := c.commit(st); err != nil {
		return false, err
	}
	return true, nil
}

// CompactRatioDurable physically removes the delete-marked vectors of
// every segment whose tombstone ratio is at least minRatio, returning the
// old-id → new-id mapping (−1 for removed ids). Segments without
// tombstones are left untouched, so with minRatio 0 the cost scales with
// the churned part of the collection. Ids in segments below the ratio keep
// their tombstones, and the mapping reflects any shift caused by earlier
// rewritten segments. Compaction is logged as a single record (its id
// remapping is a deterministic function of the collection state, so
// replay reproduces it exactly).
func (c *Collection) CompactRatioDurable(minRatio float64) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := stage(c.store, wal.Record{Type: wal.TypeCompact, Ratio: minRatio})
	if err != nil {
		return nil, err
	}
	_, mapping, err := c.commit(st)
	return mapping, err
}

// SealActiveDurable force-seals the active segment, freezing the current
// layout (subsequent appends open a fresh segment). Mostly useful to align
// segment boundaries with data locality before a read-heavy phase.
func (c *Collection) SealActiveDurable() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := stage(c.store, wal.Record{Type: wal.TypeSeal})
	if err != nil {
		return err
	}
	_, _, err = c.commit(st)
	return err
}

// Checkpoint writes an incremental checkpoint and truncates the WAL: the
// log is fsynced and rotated under the write lock, then — with queries
// and mutations flowing again — new sealed segments are written (once
// each, ever), the active segment and manifest are replaced atomically,
// and the old log is deleted. A crash at any point recovers to a state
// at least as new as the rotation. Returns ErrNotDurable on a
// non-durable collection.
func (c *Collection) Checkpoint() error {
	if c.dur == nil {
		return ErrNotDurable
	}
	c.dur.ckptMu.Lock()
	defer c.dur.ckptMu.Unlock()
	return c.checkpointLocked()
}

// checkpointLocked is Checkpoint's body; the caller holds ckptMu (so a
// snapshot capture can read the freshly committed files before another
// checkpoint can replace them).
func (c *Collection) checkpointLocked() error {
	c.mu.Lock()
	if c.dur.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	// Sync before rotating: records in the old log must be durable
	// before any record lands in the new one, or a power loss could
	// recover the new log's records on top of a torn old log — a
	// non-prefix state.
	if err := c.dur.w.Sync(); err != nil {
		// The log is failing (ENOSPC, I/O error — the Writer's error is
		// sticky, so every mutation since the first failure was rejected
		// and unapplied). Recover by checkpointing the in-memory state —
		// which is exactly the successfully-logged prefix — past the
		// broken log, unwedging the collection without a restart.
		defer c.mu.Unlock()
		return c.recoverFromLogFailure(err)
	}
	newSeq := c.dur.walSeq + 1
	nw, err := wal.Create(c.dur.fs, filepath.Join(c.dur.dir, vstore.WALFileName(newSeq)))
	if err != nil {
		c.mu.Unlock()
		return err
	}
	old := c.dur.w
	c.recordRotationLocked(c.dur.walSeq, old.Size())
	c.dur.w, c.dur.walSeq = nw, newSeq
	cs := c.store.CaptureCheckpoint(newSeq)
	c.mu.Unlock()

	_ = old.Close()
	if err := vstore.WriteCheckpoint(c.dur.fs, c.dur.dir, cs); err != nil {
		// The rotation already happened; recovery replays the old WAL and
		// then the new one, so state is safe — the next checkpoint simply
		// starts from a later sequence.
		return err
	}
	c.mu.Lock()
	c.dur.checkpoints++
	c.dur.lastCkptUnix = time.Now().Unix()
	c.mu.Unlock()
	return nil
}

// recoverFromLogFailure is Checkpoint's slow path when the current WAL
// writer has failed: a blocking checkpoint that supersedes the broken
// log. It must run with the write lock held for its whole duration —
// the failed log may end in a phantom record (written but never
// acknowledged, because its fsync failed), so no mutation may land in a
// successor log until the manifest commit makes the failed log
// irrelevant; otherwise a crash before the commit could replay the
// phantom under records that assumed it never happened.
func (c *Collection) recoverFromLogFailure(cause error) error {
	newSeq := c.dur.walSeq + 1
	cs := c.store.CaptureCheckpoint(newSeq)
	if err := vstore.WriteCheckpoint(c.dur.fs, c.dur.dir, cs); err != nil {
		return fmt.Errorf("bond: checkpoint past failed log (%v): %w", cause, err)
	}
	// The manifest now names newSeq; a missing wal-<newSeq> reads as an
	// empty log, so a crash between the commit and the Create below is
	// safe, and so is a Create failure (the next Checkpoint retries with
	// the same sequence).
	nw, err := wal.Create(c.dur.fs, filepath.Join(c.dur.dir, vstore.WALFileName(newSeq)))
	if err != nil {
		return fmt.Errorf("bond: new log after failed log (%v): %w", cause, err)
	}
	_ = c.dur.w.Close()
	// Delete the failed log (best-effort) and record no rotation
	// endpoint for it: it may end in a phantom record, so a replica
	// tailing it must get "gone" and re-bootstrap rather than be served
	// bytes that were never acknowledged.
	_ = c.dur.fs.Remove(filepath.Join(c.dur.dir, vstore.WALFileName(c.dur.walSeq)))
	c.dur.w, c.dur.walSeq = nw, newSeq
	c.dur.checkpoints++
	c.dur.lastCkptUnix = time.Now().Unix()
	return nil
}

// recordRotationLocked remembers where a rotated-out WAL generation
// ended, pruning the memory to the most recent few; the caller holds
// the write lock.
func (c *Collection) recordRotationLocked(seq uint64, end int64) {
	if c.dur.rotations == nil {
		c.dur.rotations = make(map[uint64]int64)
	}
	c.dur.rotations[seq] = end
	for s := range c.dur.rotations {
		if s+8 <= seq {
			delete(c.dur.rotations, s)
		}
	}
}

// Close stops the interval-sync loop (if any), fsyncs the WAL so a clean
// shutdown is durable under every policy, releases the log, and unmaps
// any memory-mapped sealed segment files. Further mutations fail with
// ErrClosed. Reads keep working on a heap-backed collection; on a
// collection with mapped segments their columns are gone with the
// mappings, so queries fail with ErrClosed too (the unmap happens under
// the write lock, so in-flight queries finish first). Close on a
// non-durable collection is a no-op.
func (c *Collection) Close() error {
	if c.dur == nil {
		return nil
	}
	c.dur.stopOnce.Do(func() {
		if c.dur.stop != nil {
			close(c.dur.stop)
			<-c.dur.done
		}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur.closed {
		return nil
	}
	c.dur.closed = true
	serr := c.dur.w.Sync()
	cerr := c.dur.w.Close()
	merr := c.store.ReleaseMappings()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return cerr
	}
	return merr
}

// ProbeWAL verifies the collection can still durably acknowledge
// mutations: its write-ahead log is open and an fsync of it succeeds
// (the WAL writer's error is sticky, so a log that already failed —
// ENOSPC, yanked disk — surfaces here immediately). It is the substance
// behind a serving layer's readiness probe: a nil return means the next
// AddDurable will be able to append and sync. Non-durable collections
// are trivially ready; a closed collection reports ErrClosed.
func (c *Collection) ProbeWAL() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur == nil {
		return nil
	}
	if c.dur.closed {
		return ErrClosed
	}
	// Sync under the read lock matches the interval sync loop's locking
	// contract: Append and rotation hold the write lock, so the writer
	// cannot change under us.
	return c.dur.w.Sync()
}

// WALStats returns the durability gauges, with ok=false for a collection
// not opened with OpenDurable.
func (c *Collection) WALStats() (DurabilityStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.walStatsLocked()
}

// walStatsLocked assembles DurabilityStats; callers hold at least the
// read lock.
func (c *Collection) walStatsLocked() (DurabilityStats, bool) {
	if c.dur == nil {
		return DurabilityStats{}, false
	}
	return DurabilityStats{
		Fsync:              c.dur.policy.String(),
		WALSeq:             c.dur.walSeq,
		WALBytes:           c.dur.w.Size(),
		WALRecords:         c.dur.w.Records(),
		Checkpoints:        c.dur.checkpoints,
		LastCheckpointUnix: c.dur.lastCkptUnix,
	}, true
}

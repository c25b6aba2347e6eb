package bond

// This file implements online re-clustering: a maintenance operation
// that runs k-means over the sealed prefix and rewrites it so every
// segment holds exactly one cluster. The point is the synopses — BOND's
// segment skipping only fires when per-dimension min/max bounds are
// tight, which a shuffled ingest order never produces. Re-clustering
// makes skipping independent of arrival order: TestReclusterRestoresSkipping
// holds a shuffled ingest to within 1.25× of the cluster-contiguous
// ceiling's cells per query after one pass.
//
// A recluster changes state the way every mutation does: stage (in
// durable.go) refuses it or computes the partition, one WAL record
// carries only the k-means inputs (k, seed), apply swaps the segment list
// under the write lock, and the next checkpoint writes each new segment
// file once. The record can be that small because the layout is a
// deterministic function of (collection state, k, seed): WAL replay and
// a follower stage the same record over the same state and reproduce the
// layout bit-for-bit. That determinism is a contract — the k-means
// parameters below are pinned and must never change for existing logs to
// stay replayable — and it is what makes recovery land on exactly the
// pre- or post-recluster segment set, never a mix (the crash matrix in
// crash_test.go proves it).

import (
	"fmt"

	"bond/internal/cluster"
	"bond/internal/core"
	"bond/internal/vstore"
	"bond/internal/wal"
)

// reclusterMaxIters is the recluster operation's pinned k-means iteration
// cap. It is part of the WAL replay contract, with package cluster's batch
// step and tolerance: a TypeRecluster record logs only (k, seed), so
// replay must run k-means with exactly the same parameters to reproduce
// the logged layout. Changing it would silently corrupt recovery of
// existing logs.
const reclusterMaxIters = 25

// reclusterGroups computes the cluster partition of s's sealed prefix
// for the pinned parameters — the deterministic core of a recluster,
// which stage runs for the live operation, WAL replay and a follower
// alike. It refuses k 0 and a sealed prefix with no live row.
func reclusterGroups(s *vstore.SegStore, k uint64, seed int64) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("recluster with k=0")
	}
	flat := s.FlattenSealed()
	if flat == nil || flat.Live() == 0 {
		return nil, fmt.Errorf("recluster of a store with no sealed live vectors")
	}
	kk := int(k)
	if live := flat.Live(); k > uint64(live) {
		kk = live // KMeans clamps too; this also keeps huge k out of int
	}
	res, err := cluster.KMeans(flat, cluster.Options{
		K:        kk,
		MaxIters: reclusterMaxIters,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Groups(), nil
}

// Recluster is ReclusterDurable panicking on its error. It stays only
// because the benchmark module (benchmark/layers.go) calls it; everything
// else calls ReclusterDurable.
func (c *Collection) Recluster(k int, seed int64) []int {
	mapping, err := c.ReclusterDurable(k, seed)
	if err != nil {
		panic(fmt.Sprintf("bond: Recluster: %v", err))
	}
	return mapping
}

// ReclusterDurable runs k-means over the sealed prefix and rewrites it
// so each new sealed segment holds one cluster, giving every segment the
// tightest per-dimension synopsis its members admit — which is what lets
// queries skip it. Tombstones in the sealed prefix are dropped (a
// recluster is also a compaction of that prefix); the active segment is
// untouched except that its ids shift. k ≤ 0 selects one cluster per
// segment-size worth of live sealed vectors; seed fixes the k-means
// initialization.
//
// It returns the old-id → new-id mapping (−1 for dropped tombstones), or
// (nil, nil) when there is nothing to recluster — no sealed segment, or
// none with live vectors — in which case nothing is logged. On a durable
// collection the operation is logged (and under FsyncAlways fsynced)
// before any state changes; on error the collection is unchanged.
//
// The k-means pass and the swap run under the write lock, so concurrent
// queries see either the old layout or the new one, never a mix, and
// results stay byte-identical to the seqscan oracle throughout (modulo
// the id remapping, which the returned mapping describes).
func (c *Collection) ReclusterDurable(k int, seed int64) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	segs := c.store.Segments()
	live := c.store.Live() - segs[len(segs)-1].Live() // the sealed prefix's
	if live == 0 {
		return nil, nil
	}
	if k <= 0 {
		k = (live + c.store.SegmentSize() - 1) / c.store.SegmentSize()
	}
	// stage computes the partition before anything is logged: a record is
	// only appended for an operation that is certain to apply.
	st, err := stage(c.store, wal.Record{Type: wal.TypeRecluster, K: uint64(k), Seed: seed})
	if err != nil {
		return nil, err
	}
	_, mapping, err := c.commit(st)
	if err != nil {
		return nil, err
	}
	c.reclusters++
	c.reclusterMark = c.sealedLenLocked()
	return mapping, nil
}

// sealedLenLocked returns the slot count of the sealed prefix; callers
// hold at least the read lock.
func (c *Collection) sealedLenLocked() int {
	bases := c.store.Bases()
	return bases[len(bases)-1]
}

// SealedSpread measures how loose the sealed segments' synopses are: the
// size-weighted mean per-dimension width of each sealed segment's
// synopsis relative to the collection's global extent (see
// core.SynopsisSpread). ≈1 on a shuffled ingest order (every segment
// spans everything — skipping cannot fire, a recluster would help), ≈0
// on a cluster-contiguous layout. ok is false when it cannot be measured
// (fewer than one sealed segment with a synopsis).
func (c *Collection) SealedSpread() (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sealedSpreadLocked()
}

func (c *Collection) sealedSpreadLocked() (float64, bool) {
	segs, bases := c.store.Segments(), c.store.Bases()
	last := len(segs) - 1
	views := make([]core.SegmentView, 0, last)
	for i := 0; i < last; i++ {
		views = append(views, segmentView(segs[i], bases[i], segs[i].Store))
	}
	return core.SynopsisSpread(views)
}

// ReclusterAdvice is the skip-efficiency heuristic a maintenance loop
// triggers on: it reports the current sealed synopsis spread and whether
// a recluster is advised — at least two sealed segments (with one there
// is nothing to skip), a measurable spread of at least minSpread, and a
// sealed prefix that grew or shrank since the last recluster (so a
// layout the operation cannot improve is not rewritten on every tick).
func (c *Collection) ReclusterAdvice(minSpread float64) (spread float64, advise bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	segs := c.store.NumSegments()
	if segs-1 < 2 {
		return 0, false
	}
	spread, ok := c.sealedSpreadLocked()
	if !ok {
		return 0, false
	}
	if c.sealedLenLocked() == c.reclusterMark {
		return spread, false
	}
	return spread, spread >= minSpread
}

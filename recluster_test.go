package bond

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/dataset"
	"bond/internal/seqscan"
)

// clusteredShuffled builds an in-memory collection from planted-cluster
// data: because Clustered assigns each vector a random centre, the
// ingest order interleaves every cluster — the worst case for synopsis
// skipping and the layout a recluster must fix.
func clusteredShuffled(t *testing.T, n, dims, segSize int, seed int64) *Collection {
	t.Helper()
	cfg := dataset.DefaultClustered(n, dims, 0, seed)
	cfg.Clusters = 4
	cfg.NoiseFrac = 0
	c := NewSegmented(dims, segSize)
	addSealed(t, c, dataset.Clustered(cfg))
	return c
}

func TestReclusterTightensLayoutAndRemapsIDs(t *testing.T) {
	const (
		n       = 200
		dims    = 4
		segSize = 25
	)
	c := clusteredShuffled(t, n, dims, segSize, 9)
	deleteIDs(t, c, 3, 17, 44, 101, 199)
	rows := make([][]float64, c.Len())
	deleted := make([]bool, c.Len())
	for id := range rows {
		rows[id] = c.store.Row(id)
		deleted[id] = c.store.IsDeleted(id)
	}
	liveBefore := c.Live()

	preSpread, ok := c.SealedSpread()
	if !ok || preSpread < 0.5 {
		t.Fatalf("shuffled pre-recluster spread = %v ok=%v, want loose", preSpread, ok)
	}
	q := rows[10]
	before, err := c.Query(QuerySpec{Query: q, K: 5, Criterion: Hq, Strategy: StrategyExact})
	if err != nil {
		t.Fatal(err)
	}

	mapping, err := c.ReclusterDurable(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(mapping) != len(rows) {
		t.Fatalf("mapping len = %d, want %d", len(mapping), len(rows))
	}
	for id, nid := range mapping {
		switch {
		case deleted[id]:
			if nid != -1 {
				t.Fatalf("tombstone %d mapped to %d, want -1", id, nid)
			}
		case nid < 0:
			t.Fatalf("live id %d dropped", id)
		default:
			if got := c.store.Row(nid); !reflect.DeepEqual(got, rows[id]) {
				t.Fatalf("id %d→%d row changed: %v vs %v", id, nid, got, rows[id])
			}
		}
	}
	if c.Live() != liveBefore {
		t.Fatalf("live count changed: %d vs %d", c.Live(), liveBefore)
	}

	postSpread, ok := c.SealedSpread()
	if !ok || postSpread >= preSpread {
		t.Fatalf("spread did not tighten: %v → %v (ok=%v)", preSpread, postSpread, ok)
	}
	st := c.StatsSnapshot()
	if st.Reclusters != 1 || !st.SpreadMeasured || st.SealedSpread != postSpread {
		t.Fatalf("stats gauges = %+v, want reclusters 1 spread %v", st, postSpread)
	}

	// The same query must return byte-identical scores in the same rank
	// order, with every id translated through the mapping. Bit-equal
	// scores are the documented contract for pinned strategies only, so
	// both sides of the remap check pin StrategyExact (a row's dimensions
	// are summed in storage order, which a re-layout does not change);
	// auto, which may answer through a path that sums in query order, must
	// then agree with it by id and 1e-9. ROADMAP item 1 (one canonical
	// score) turns this back into a single == check.
	after, err := c.Query(QuerySpec{Query: q, K: 5, Criterion: Hq, Strategy: StrategyExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) != len(before.Results) {
		t.Fatalf("result count changed: %d vs %d", len(after.Results), len(before.Results))
	}
	for i := range before.Results {
		wantID := mapping[before.Results[i].ID]
		if after.Results[i].ID != wantID || after.Results[i].Score != before.Results[i].Score {
			t.Fatalf("rank %d: got (%d,%g), want (%d,%g)",
				i, after.Results[i].ID, after.Results[i].Score, wantID, before.Results[i].Score)
		}
	}
	auto, err := c.Query(QuerySpec{Query: q, K: 5, Criterion: Hq})
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.Results) != len(after.Results) {
		t.Fatalf("auto result count: %d vs %d", len(auto.Results), len(after.Results))
	}
	for i, r := range auto.Results {
		if e := after.Results[i]; r.ID != e.ID || math.Abs(r.Score-e.Score) > 1e-9 {
			t.Fatalf("post-recluster auto vs exact diverged at rank %d: (%d,%v) vs (%d,%v)",
				i, r.ID, r.Score, e.ID, e.Score)
		}
	}
}

// TestReclusterRestoresSkipping pins what a recluster buys: planted
// clusters of one segment each, ingested shuffled so every segment spans
// the whole extent, read ≥ 8× fewer cells per forced-BOND query after one
// Recluster pass, within 1.25× of a cluster-contiguous ingest (the
// ceiling). Cell counts are deterministic for a seed, so this is a check,
// not a timing; -v logs the readings.
func TestReclusterRestoresSkipping(t *testing.T) {
	const (
		n       = 4000
		dims    = 16
		segSize = 125
		queries = 32
		k       = 10
	)
	for _, seed := range []int64{41, 1, 2} {
		rng := rand.New(rand.NewSource(seed))
		contiguous := make([][]float64, 0, n)
		center := make([]float64, dims)
		for i := 0; i < n; i++ {
			if i%segSize == 0 {
				for d := range center {
					center[d] = rng.Float64()
				}
			}
			v := make([]float64, dims)
			for d := range v {
				v[d] = math.Min(1, math.Max(0, center[d]+0.03*(rng.Float64()-0.5)))
			}
			contiguous = append(contiguous, v)
		}
		shuffled := make([][]float64, n)
		for i, j := range rng.Perm(n) {
			shuffled[j] = contiguous[i]
		}
		qs := make([][]float64, queries)
		for i := range qs {
			qs[i] = contiguous[(i*segSize+i)%n] // one per cluster, round-robin
		}

		// measure runs every query under both criteria and returns the
		// mean cells scanned and segments skipped per query, plus each
		// answer's k-th score: all three layouts must give the same answers.
		measure := func(c *Collection) (cells, skipped float64, kth []float64) {
			var scannedSum, skippedSum int64
			for _, crit := range []Criterion{Eq, Hq} {
				for _, q := range qs {
					res, err := c.Query(QuerySpec{Query: q, K: k, Criterion: crit, Strategy: StrategyBOND})
					if err != nil {
						t.Fatal(err)
					}
					scannedSum += res.Stats.ValuesScanned
					skippedSum += int64(res.Stats.SegmentsSkipped)
					kth = append(kth, res.Results[len(res.Results)-1].Score)
				}
			}
			runs := float64(2 * queries)
			return float64(scannedSum) / runs, float64(skippedSum) / runs, kth
		}

		col := NewCollectionSegmented(shuffled, segSize)
		spreadBefore, _ := col.SealedSpread()
		before, skipBefore, kthBefore := measure(col)
		if _, err := col.ReclusterDurable(0, 1); err != nil {
			t.Fatal(err)
		}
		spreadAfter, _ := col.SealedSpread()
		after, skipAfter, kthAfter := measure(col)
		ceiling, skipCeiling, kthCeiling := measure(NewCollectionSegmented(contiguous, segSize))
		t.Logf("seed %d: cells/query %.0f → %.0f (ceiling %.0f), skipped %.1f → %.1f (ceiling %.1f), spread %.3f → %.3f",
			seed, before, after, ceiling, skipBefore, skipAfter, skipCeiling, spreadBefore, spreadAfter)

		for i := range kthBefore {
			if math.Abs(kthAfter[i]-kthBefore[i]) > 1e-9 || math.Abs(kthCeiling[i]-kthBefore[i]) > 1e-9 {
				t.Fatalf("seed %d query %d: k-th score differs across layouts: %v / %v / %v",
					seed, i, kthBefore[i], kthAfter[i], kthCeiling[i])
			}
		}
		if before < 8*after {
			t.Errorf("seed %d: recluster cut cells/query only %.0f → %.0f, want ≥ 8×", seed, before, after)
		}
		if after > 1.25*ceiling {
			t.Errorf("seed %d: %.0f cells/query after recluster, want ≤ 1.25 × ceiling %.0f", seed, after, ceiling)
		}
		if spreadAfter > 0.1 {
			t.Errorf("seed %d: spread after recluster %.3f, want ≤ 0.1", seed, spreadAfter)
		}
	}
}

func TestReclusterNoopCases(t *testing.T) {
	empty := NewSegmented(3, 8)
	if m, err := empty.ReclusterDurable(0, 1); m != nil || err != nil {
		t.Fatalf("empty: %v %v", m, err)
	}
	onlyActive := NewSegmented(3, 8)
	if _, err := onlyActive.AddDurable([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m, err := onlyActive.ReclusterDurable(0, 1); m != nil || err != nil {
		t.Fatalf("unsealed: %v %v", m, err)
	}
	deadSealed := NewSegmented(3, 2)
	addSealed(t, deadSealed, [][]float64{{1, 0, 0}, {0, 1, 0}})
	deleteIDs(t, deadSealed, 0, 1)
	if m, err := deadSealed.ReclusterDurable(0, 1); m != nil || err != nil {
		t.Fatalf("all-dead sealed: %v %v", m, err)
	}

	// A durable no-op must append nothing to the WAL.
	fs := crashfs.NewMemFS()
	c, err := OpenDurable("col", DurableOptions{FS: fs, Dims: 3, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddDurable([]float64{float64(i), 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	dsBefore, _ := c.WALStats()
	if m, err := c.ReclusterDurable(0, 1); m != nil || err != nil {
		t.Fatalf("durable no-op: %v %v", m, err)
	}
	dsAfter, _ := c.WALStats()
	if dsAfter.WALRecords != dsBefore.WALRecords {
		t.Fatalf("no-op recluster logged a record: %d → %d", dsBefore.WALRecords, dsAfter.WALRecords)
	}
}

func TestReclusterAdviceHeuristic(t *testing.T) {
	c := clusteredShuffled(t, 100, 3, 20, 4)
	spread, advise := c.ReclusterAdvice(0.6)
	if !advise || spread < 0.6 {
		t.Fatalf("shuffled layout: advice (%v,%v), want advised", spread, advise)
	}
	if _, err := c.ReclusterDurable(0, 2); err != nil {
		t.Fatal(err)
	}
	if spread, advise = c.ReclusterAdvice(0); advise {
		t.Fatalf("unchanged layout re-advised at spread %v", spread)
	}
	// New sealed data moves the mark; with threshold 0 advice fires again.
	addSealed(t, c, dataset.Uniform(40, 3, 8))
	if _, advise = c.ReclusterAdvice(0); !advise {
		t.Fatal("grown sealed prefix not re-advised at threshold 0")
	}

	// Fewer than two sealed segments: nothing to skip, never advised.
	single := NewSegmented(3, 100)
	addSealed(t, single, dataset.Uniform(50, 3, 1))
	if _, advise := single.ReclusterAdvice(0); advise {
		t.Fatal("single sealed segment advised")
	}
}

// TestReclusterDurableReplay proves the replay contract: a TypeRecluster
// record carries only (k, seed), and reopening re-runs the same
// deterministic clustering to reproduce the layout bit-for-bit — both
// straight from the WAL and across a checkpoint.
func TestReclusterDurableReplay(t *testing.T) {
	fs := crashfs.NewMemFS()
	c, err := OpenDurable("col", DurableOptions{FS: fs, Dims: 4, SegmentSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	vectors := dataset.Clustered(dataset.ClusteredConfig{
		N: 60, Dims: 4, Clusters: 3, Sigma: 0.02, Seed: 21,
	})
	if _, err := c.AddBatchDurable(vectors); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 9, 33} {
		if _, err := c.TryDeleteDurable(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReclusterDurable(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBatchDurable(vectors[:20]); err != nil {
		t.Fatal(err)
	}
	if err := c.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReclusterDurable(3, -11); err != nil {
		t.Fatal(err)
	}
	want := dumpCollection(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := reopenDurable(t, fs, "col", FsyncAlways)
	if got := dumpCollection(c2); !sameDump(got, want) {
		t.Fatalf("WAL replay of recluster diverged:\n got %+v\nwant %+v", got, want)
	}

	// Checkpoint the reclustered layout, mutate and recluster into the
	// fresh WAL, reopen once more.
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AddBatchDurable(vectors[20:40]); err != nil {
		t.Fatal(err)
	}
	if err := c2.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReclusterDurable(0, 99); err != nil {
		t.Fatal(err)
	}
	want2 := dumpCollection(c2)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := reopenDurable(t, fs, "col", FsyncAlways)
	defer c3.Close()
	if got := dumpCollection(c3); !sameDump(got, want2) {
		t.Fatalf("checkpoint+recluster reopen diverged")
	}
}

// TestReclusterDurableLifecycleProperty is the randomized recluster
// lifecycle property: a random interleaving of Add/AddBatch/Delete/
// Compact/Seal/Recluster/Checkpoint/Close+Reopen runs against an
// in-memory mirror receiving the same mutations (recluster is
// deterministic, so the mirror reproduces the exact layout), while
// concurrent Query and QueryBatch calls — exact results pinned to the
// seqscan oracle at the end — race every mutation. Run under -race in
// CI.
func TestReclusterDurableLifecycleProperty(t *testing.T) {
	const (
		dims    = 5
		segSize = 16
		ops     = 300
	)
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := crashfs.NewMemFS()
			c, err := OpenDurable("col", DurableOptions{FS: fs, Dims: dims, SegmentSize: segSize, Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			mirror := NewSegmented(dims, segSize)

			var wg sync.WaitGroup
			// Readers wait for the first live vector: an empty collection
			// answers ErrNoCandidates, and from then on any error fails the
			// test (the delete case below never removes the last live one).
			var populated atomic.Bool
			stopQueries := func() {}
			startQueries := func() {
				stop := make(chan struct{})
				q1 := randVector(rng, dims) // drawn before the goroutine: rng is not shared
				q2 := randVector(rng, dims)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if !populated.Load() {
							runtime.Gosched()
							continue
						}
						if _, qerr := c.Query(QuerySpec{Query: q1, K: 3, Criterion: Hq, Strategy: StrategyExact}); qerr != nil {
							t.Errorf("concurrent query: %v", qerr)
							return
						}
						if _, qerr := c.QueryBatch([]QuerySpec{
							{Query: q1, K: 2, Criterion: Hq},
							{Query: q2, K: 3, Criterion: Hq},
						}); qerr != nil {
							t.Errorf("concurrent query batch: %v", qerr)
							return
						}
					}
				}()
				stopQueries = func() { close(stop); wg.Wait() }
			}
			startQueries()

			apply := func(op func(col *Collection) error) {
				if err := op(c); err != nil {
					t.Fatalf("durable op: %v", err)
				}
				if err := op(mirror); err != nil {
					t.Fatalf("mirror op: %v", err)
				}
				if mirror.Live() > 0 {
					populated.Store(true)
				}
			}
			for i := 0; i < ops; i++ {
				switch r := rng.Float64(); {
				case r < 0.40:
					v := randVector(rng, dims)
					apply(func(col *Collection) error { _, e := col.AddDurable(v); return e })
				case r < 0.55:
					batch := make([][]float64, 1+rng.Intn(6))
					for j := range batch {
						batch[j] = randVector(rng, dims)
					}
					apply(func(col *Collection) error { _, e := col.AddBatchDurable(batch); return e })
				case r < 0.68:
					if n := c.Len(); n > 0 && c.Live() > 1 {
						id := rng.Intn(n)
						apply(func(col *Collection) error { _, e := col.TryDeleteDurable(id); return e })
					}
				case r < 0.76:
					ratio := rng.Float64() * 0.5
					apply(func(col *Collection) error { _, e := col.CompactRatioDurable(ratio); return e })
				case r < 0.82:
					apply(func(col *Collection) error { return col.SealActiveDurable() })
				case r < 0.90:
					// The tentpole op: k auto or explicit, random seed — both
					// sides must converge on the identical layout.
					k := 0
					if rng.Float64() < 0.3 {
						k = 1 + rng.Intn(4)
					}
					s := rng.Int63()
					apply(func(col *Collection) error { _, e := col.ReclusterDurable(k, s); return e })
					if got, want := dumpCollection(c), dumpCollection(mirror); !sameDump(got, want) {
						t.Fatalf("op %d: recluster diverged from mirror", i)
					}
				case r < 0.95:
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					stopQueries()
					want := dumpCollection(c)
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					c = reopenDurable(t, fs, "col", FsyncNever)
					if got := dumpCollection(c); !sameDump(got, want) {
						t.Fatalf("op %d: reopen diverged from pre-close state", i)
					}
					startQueries()
				}
			}
			stopQueries()

			got, want := dumpCollection(c), dumpCollection(mirror)
			if !sameDump(got, want) {
				t.Fatalf("final state diverged from in-memory mirror:\n got %+v\nwant %+v", got, want)
			}
			// Pin a final query on the reclustered layout to the
			// sequential-scan oracle, rank for rank. The documented contract
			// promises bit-equal scores for pinned strategies only:
			// StrategyExact folds the dimensions left to right in storage
			// order — seqscan's own sum — so it is compared with ==, while
			// auto may answer through a path that sums in query order and
			// is compared by id and 1e-9. ROADMAP item 1 (one canonical
			// score) turns this back into a single == check.
			var live [][]float64
			var liveIDs []int
			for id, row := range got.rows {
				if !got.deleted[id] {
					live = append(live, row)
					liveIDs = append(liveIDs, id)
				}
			}
			if len(live) > 0 {
				q := randVector(rng, dims)
				oracle, _ := seqscan.SearchHistogram(live, q, 3)
				for _, strat := range []Strategy{StrategyExact, StrategyAuto} {
					res, err := c.Query(QuerySpec{Query: q, K: 3, Criterion: Hq, Strategy: strat})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Results) != len(oracle) {
						t.Fatalf("%v query k: %d vs oracle %d", strat, len(res.Results), len(oracle))
					}
					for j := range oracle {
						r, o := res.Results[j], oracle[j]
						same := r.Score == o.Score
						if strat == StrategyAuto {
							same = math.Abs(r.Score-o.Score) <= 1e-9
						}
						if !same || r.ID != liveIDs[o.ID] {
							t.Fatalf("%v rank %d: got (%d,%v) oracle (%d,%v)",
								strat, j, r.ID, r.Score, liveIDs[o.ID], o.Score)
						}
					}
				}
			}
			c.Close()
		})
	}
}

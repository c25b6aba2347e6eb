package bond

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/dataset"
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

	// The same query answers with the same scores in the same rank order,
	// every id translated through the mapping, on every strategy.
	for i := range before.Results {
		before.Results[i].ID = mapping[before.Results[i].ID]
	}
	spec, after := QuerySpec{Query: q, K: 5, Criterion: Hq}, dumpCollection(c)
	assertAnswers(t, "post-recluster", c, after.rows, after.deleted, spec)
	assertSameAnswer(t, "remapped", scanAnswer(after.rows, after.deleted, spec), before.Results)
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
		contiguous := layoutRows(rng, "clustered", n, dims, segSize)
		shuffled := make([][]float64, n)
		for i, j := range rng.Perm(n) {
			shuffled[j] = contiguous[i]
		}
		qs := make([][]float64, queries)
		for i := range qs {
			qs[i] = contiguous[(i*segSize+i)%n] // one per cluster, round-robin
		}

		// measure runs every query under both criteria, holds each answer
		// to the scan of the layout's rows, and returns the mean cells
		// scanned and segments skipped per query.
		measure := func(c *Collection) (cells, skipped float64) {
			rows := dumpCollection(c).rows
			var scannedSum, skippedSum int64
			for _, crit := range []Criterion{Eq, Hq} {
				for _, q := range qs {
					spec := QuerySpec{Query: q, K: k, Criterion: crit, Strategy: StrategyBOND}
					res, err := c.Query(spec)
					if err != nil {
						t.Fatal(err)
					}
					if !assertSameAnswer(t, fmt.Sprintf("seed %d %v", seed, crit), res.Results, scanAnswer(rows, nil, spec)) {
						t.FailNow()
					}
					scannedSum += res.Stats.ValuesScanned
					skippedSum += int64(res.Stats.SegmentsSkipped)
				}
			}
			runs := float64(2 * queries)
			return float64(scannedSum) / runs, float64(skippedSum) / runs
		}

		col := NewCollectionSegmented(shuffled, segSize)
		spreadBefore, _ := col.SealedSpread()
		before, skipBefore := measure(col)
		if _, err := col.ReclusterDurable(0, 1); err != nil {
			t.Fatal(err)
		}
		spreadAfter, _ := col.SealedSpread()
		after, skipAfter := measure(col)
		ceiling, skipCeiling := measure(NewCollectionSegmented(contiguous, segSize))
		t.Logf("seed %d: cells/query %.0f → %.0f (ceiling %.0f), skipped %.1f → %.1f (ceiling %.1f), spread %.3f → %.3f",
			seed, before, after, ceiling, skipBefore, skipAfter, skipCeiling, spreadBefore, spreadAfter)
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
// lifecycle property: lifecycleProperty with Recluster among the
// operations. Run under -race in CI.
func TestReclusterDurableLifecycleProperty(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lifecycleProperty(t, seed, 300, lifecycleMix{add: 40, batch: 15, del: 13, compact: 8, seal: 6, recluster: 8, checkpoint: 5, reopen: 5})
		})
	}
}

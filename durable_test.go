package bond

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"bond/internal/crashfs"
	"bond/internal/dataset"
	"bond/internal/iofs"
	"bond/internal/seqscan"
)

// collectionDump is a full logical snapshot of a collection's state —
// what durability must preserve byte-for-byte across crash and
// recovery. Segment boundaries are included because compaction replay
// depends on them.
type collectionDump struct {
	dims, n, live, nseg int
	rows                [][]float64
	deleted             []bool
}

func dumpCollection(c *Collection) collectionDump {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d := collectionDump{
		dims: c.store.Dims(),
		n:    c.store.Len(),
		live: c.store.Live(),
		nseg: c.store.NumSegments(),
	}
	for id := 0; id < d.n; id++ {
		d.rows = append(d.rows, c.store.Row(id))
		d.deleted = append(d.deleted, c.store.IsDeleted(id))
	}
	return d
}

func sameDump(a, b collectionDump) bool { return reflect.DeepEqual(a, b) }

func reopenDurable(t *testing.T, fs iofs.FS, dir string, policy FsyncPolicy) *Collection {
	t.Helper()
	c, err := OpenDurable(dir, DurableOptions{FS: fs, Fsync: policy})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	return c
}

// TestOpenDurableLifecycle drives the full durable lifecycle on the
// in-memory filesystem: create, mutate, close, reopen, checkpoint,
// mutate, reopen — asserting bit-identical state at every generation.
func TestOpenDurableLifecycle(t *testing.T) {
	fs := crashfs.NewMemFS()
	dir := "col.bond"
	c, err := OpenDurable(dir, DurableOptions{FS: fs, Dims: 4, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WALStats(); !ok {
		t.Fatal("OpenDurable produced a non-durable collection")
	}
	vectors := dataset.CorelLike(30, 4, 11)
	for _, v := range vectors[:20] {
		if _, err := c.AddDurable(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddBatchDurable(vectors[20:]); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.TryDeleteDurable(3); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	want := dumpCollection(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDurable(vectors[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after Close: %v", err)
	}

	c2 := reopenDurable(t, fs, dir, FsyncAlways)
	if got := dumpCollection(c2); !sameDump(got, want) {
		t.Fatalf("replay-only reopen diverged:\n got %+v\nwant %+v", got, want)
	}

	// Checkpoint, keep mutating into the fresh WAL, reopen again.
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ds, ok := c2.WALStats()
	if !ok || ds.WALRecords != 0 || ds.Checkpoints != 1 {
		t.Fatalf("post-checkpoint WAL stats: %+v ok=%v", ds, ok)
	}
	if _, err := c2.CompactRatioDurable(0); err != nil {
		t.Fatal(err)
	}
	if err := c2.SealActiveDurable(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AddDurable(vectors[1]); err != nil {
		t.Fatal(err)
	}
	want2 := dumpCollection(c2)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := reopenDurable(t, fs, dir, FsyncAlways)
	defer c3.Close()
	if got := dumpCollection(c3); !sameDump(got, want2) {
		t.Fatalf("checkpoint+replay reopen diverged")
	}
	// The stats snapshot must expose the durability block.
	if st := c3.StatsSnapshot(); st.Durability == nil || st.Durability.Fsync != "always" {
		t.Fatalf("stats missing durability block: %+v", st.Durability)
	}
}

func TestOpenDurableRequiresDimsToCreate(t *testing.T) {
	fs := crashfs.NewMemFS()
	if _, err := OpenDurable("missing", DurableOptions{FS: fs}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open missing without dims: %v", err)
	}
}

// TestDurableLifecycleProperty is the randomized lifecycle property
// test: a random interleaving of Add/AddBatch/Delete/Compact/Seal/
// Checkpoint/Close+Reopen runs against a plain in-memory mirror
// collection receiving the same mutations, and after every reopen the
// recovered state must equal the mirror bit-for-bit while concurrent
// queries (exact results pinned to the seqscan oracle) race the next
// mutations. Run under -race in CI.
func TestDurableLifecycleProperty(t *testing.T) {
	const (
		dims    = 5
		segSize = 16
		ops     = 400
	)
	for _, seed := range []int64{1, 2, 3} {
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
			stopQueries := func() {}
			startQueries := func() {
				stop := make(chan struct{})
				q := randVector(rng, dims) // drawn before the goroutine: rng is not shared
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, qerr := c.Query(QuerySpec{Query: q, K: 3, Criterion: Hq, Strategy: StrategyExact})
						if qerr != nil {
							t.Errorf("concurrent query: %v", qerr)
							return
						}
						_ = res
					}
				}()
				stopQueries = func() { close(stop); wg.Wait() }
			}

			apply := func(op func(col *Collection) error) {
				if err := op(c); err != nil {
					t.Fatalf("durable op: %v", err)
				}
				if err := op(mirror); err != nil {
					t.Fatalf("mirror op: %v", err)
				}
			}
			for i := 0; i < ops; i++ {
				switch r := rng.Float64(); {
				case r < 0.45:
					v := randVector(rng, dims)
					apply(func(col *Collection) error { _, e := col.AddDurable(v); return e })
				case r < 0.60:
					batch := make([][]float64, 1+rng.Intn(6))
					for j := range batch {
						batch[j] = randVector(rng, dims)
					}
					apply(func(col *Collection) error { _, e := col.AddBatchDurable(batch); return e })
				case r < 0.75:
					if n := c.Len(); n > 0 {
						id := rng.Intn(n)
						apply(func(col *Collection) error { _, e := col.TryDeleteDurable(id); return e })
					}
				case r < 0.85:
					ratio := rng.Float64() * 0.5
					apply(func(col *Collection) error { _, e := col.CompactRatioDurable(ratio); return e })
				case r < 0.90:
					apply(func(col *Collection) error { return col.SealActiveDurable() })
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
			// Pin a final query to the sequential-scan oracle, rank for rank.
			// The documented contract promises bit-equal scores for pinned
			// strategies only: StrategyExact folds the dimensions left to
			// right in storage order — seqscan's own sum — so it is compared
			// with ==, while auto may answer through a path that sums in
			// query order and is compared by id and 1e-9. ROADMAP item 1
			// (one canonical score) turns this back into a single == check.
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

func randVector(rng *rand.Rand, dims int) []float64 {
	v := make([]float64, dims)
	for d := range v {
		v[d] = rng.Float64()
	}
	return v
}
